#!/usr/bin/env python3
"""Reachability gate: every out-of-line function in src/ must be reached by a
product binary (a tool, an example, a bench or perfbench), or be allowlisted
below with its reason: an oracle or hook a test checks other code with, a test
client, or a printer.

Build a separate tree at -O0 with one section per function, linked with
--gc-sections, so that an executable keeps exactly the functions it can call:

  FLAGS="-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \\
         -DCMAKE_CXX_FLAGS=-ffunction-sections \\
         -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
  cmake -S . -B build-reach $FLAGS
  cmake --build build-reach -j --target $(python3 tools/reachability.py --targets)
  cmake -S perfbench -B build-reach-perfbench $FLAGS
  cmake --build build-reach-perfbench -j --target perfbench
  python3 tools/reachability.py

The universe is the strong text symbols (nm type T) of the src/ static
libraries; a function is reached when any product executable still defines
it. Names are compared demangled (c++filt), so the allowlist reads like the
source. At -O2 inlined callees vanish from the executables and would read as
unreached, hence -O0.

Blind spot: header-only templates and inline functions are weak or absent in
the libraries, so this check cannot see them.

Exit 1 on an unreached function that is not allowlisted, and on an allowlist
entry that names a reached or undefined function, so the list cannot rot.
"""
import argparse
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Demangled signature -> why it stays although no product binary reaches it.
ALLOWLIST = {
    # Oracles: exact references the streaming kernels are checked against.
    "superfe::Skewness(std::vector<double> const&)":
        "oracle: streaming_test and kitchen_sink_test check f_skew against it",
    "superfe::Kurtosis(std::vector<double> const&)":
        "oracle: streaming_test and kitchen_sink_test check f_kur against it",
    "superfe::RelativeError(double, double, double)":
        "oracle: the streaming and damped-window tests bound kernel error with it",
    # NaiveStats is the buffered baseline that the definitional oracle in
    # ROADMAP.md ("Build an oracle from the definitions") extends.
    "superfe::NaiveStats::Sum() const":
        "oracle: the first pass of NaiveStats::Mean",
    "superfe::NaiveStats::Mean() const":
        "oracle: NaiveTest checks WelfordStats against it",
    "superfe::NaiveStats::Variance() const":
        "oracle: NaiveTest checks WelfordStats against it",
    "superfe::NaiveStats::DistinctCount() const":
        "oracle: exact f_card reference of the definitional oracle",
    "superfe::Trace::IsTimeOrdered() const":
        "oracle: trace_test checks SortByTime, the profile generators and the attack mix with it",
    # DampedStats and DampedStats2D run each damped state on its own clock:
    # the definition fusion_test's per-slot oracle holds the damped lanes to
    # (bench_micro_streaming still times DampedStats::Add).
    "superfe::DampedStats::linear_sum() const":
        "oracle: the per-slot oracle's damped f_sum",
    "superfe::DampedStats::mean() const":
        "oracle: the per-slot oracle's damped f_mean",
    "superfe::DampedStats::variance() const":
        "oracle: the per-slot oracle's damped f_var and f_std",
    "superfe::DampedStats2D::AddA(double, double)":
        "oracle: the per-slot oracle's forward samples",
    "superfe::DampedStats2D::AddB(double, double)":
        "oracle: the per-slot oracle's backward samples",
    "superfe::DampedStats2D::DecayResidual(double)":
        "oracle: AddA and AddB decay the residual sum on the state's own clock",
    "superfe::DampedStats2D::Magnitude() const":
        "oracle: the per-slot oracle's f_mag",
    "superfe::DampedStats2D::Radius() const":
        "oracle: the per-slot oracle's f_radius",
    "superfe::DampedStats2D::Covariance() const":
        "oracle: the per-slot oracle's f_cov",
    "superfe::DampedStats2D::CorrelationCoefficient() const":
        "oracle: the per-slot oracle's f_pcc",
    # Test hooks.
    "superfe::damped_lanes::QuantizeFixedForTest(double const*, double*, unsigned long)":
        "test hook: DampedLaneKernelsMatchAcrossSimdLevels checks the vector rounding with it",
    "superfe::SetLogLevel(superfe::LogLevel)":
        "test hook: LoggingTest raises the level to check the SFE_*LOG gate",
    # Test clients of the servers and ingest sources.
    "superfe::HttpBody(std::string const&)":
        "test client: telemetry_test reads /metrics, /healthz and /status bodies",
    "superfe::UdpConnect(unsigned short)":
        "test client: daemon_test feeds SocketSource over UDP",
    "superfe::AppendIngestRecord(std::string*, superfe::PacketRecord const&)":
        "test client: daemon_test frames records for SocketSource",
    # Printers.
    "superfe::FaultPlan::ToString() const":
        "printer: fault_test round-trips FaultPlan::Parse through it",
    "superfe::Value::ToString() const":
        "printer: misc_test pins the text form of policy values",
}

# The CMake files whose executables are products, and the directory (under the
# build tree) each one's binaries land in.
PRODUCT_DIRS = ("tools", "examples", "bench")
TARGET_RE = re.compile(r"^\s*(?:superfe_(?:tool|example|bench)|add_executable)\((\w+)", re.M)
# Demangled spellings shortened to the source's.
STRING = "std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >"
DEFAULT_ALLOCATOR_RE = re.compile(r", std::allocator<[^<>]*> >")


def product_targets():
    """(build subdirectory, target name) for every product executable."""
    out = []
    for d in PRODUCT_DIRS:
        text = (ROOT / d / "CMakeLists.txt").read_text()
        out += [(d, name) for name in TARGET_RE.findall(text)]
    return out


def nm_symbols(path, types):
    """{mangled name: archive member or file name} for nm types in `types`."""
    res = subprocess.run(["nm", "--defined-only", str(path)],
                         capture_output=True, text=True, check=True)
    member = path.name
    syms = {}
    for line in res.stdout.splitlines():
        if line.endswith(":"):
            member = line[:-1]
            continue
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in types:
            syms[parts[2]] = member
    return syms


def demangle(names):
    """{mangled: demangled} via one c++filt call, with std::string and
    default allocators spelled as in the source."""
    names = sorted(names)
    res = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         capture_output=True, text=True, check=True)
    out = {}
    for name, line in zip(names, res.stdout.splitlines()):
        line = line.replace(STRING, "std::string").replace("[abi:cxx11]", "")
        out[name] = DEFAULT_ALLOCATOR_RE.sub(">", line)
    return out


def main():
    parser = argparse.ArgumentParser(
        description="Check that every src/ function is reached by a product binary.")
    parser.add_argument("--build", default="build-reach",
                        help="root build tree (default: build-reach)")
    parser.add_argument("--perfbench-build", default="build-reach-perfbench",
                        help="perfbench build tree (default: build-reach-perfbench)")
    parser.add_argument("--targets", action="store_true",
                        help="print the product CMake targets and exit")
    args = parser.parse_args()

    targets = product_targets()
    if args.targets:
        print(" ".join(name for _, name in targets))
        return 0

    build = ROOT / args.build
    exes = [build / d / name for d, name in targets]
    exes.append(ROOT / args.perfbench_build / "perfbench")
    missing = [str(p) for p in exes if not p.is_file()]
    if missing:
        print("reachability: missing product binaries (build them first):\n  " +
              "\n  ".join(missing), file=sys.stderr)
        return 2
    libs = sorted((build / "src").glob("*/*.a"))
    if not libs:
        print(f"reachability: no src/ libraries under {build / 'src'}", file=sys.stderr)
        return 2

    universe = {}
    for lib in libs:
        for sym, member in nm_symbols(lib, "T").items():
            universe[sym] = f"{lib.parent.name}/{member.removesuffix('.o')}"
    reached = set()
    for exe in exes:
        reached |= nm_symbols(exe, "TtWw").keys()

    names = demangle(universe.keys() | reached)
    defined = {names[s]: where for s, where in universe.items()}
    reached_names = {names[s] for s in reached}
    unreached = {n: w for n, w in defined.items() if n not in reached_names}

    failures = []
    for name in sorted(unreached.keys() - ALLOWLIST.keys()):
        failures.append(f"unreached and not allowlisted: {name}  ({unreached[name]})")
    for name in sorted(ALLOWLIST):
        if name not in defined:
            failures.append(f"allowlisted but not defined in src/: {name}")
        elif name not in unreached:
            failures.append(f"allowlisted but reached: {name}")

    print(f"reachability: {len(defined)} strong functions in src/, "
          f"{len(defined) - len(unreached)} reached by {len(exes)} product binaries, "
          f"{len(unreached)} unreached, {len(ALLOWLIST)} allowlisted")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
