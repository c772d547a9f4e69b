#include "fault/fault_injector.h"

#include <algorithm>

namespace superfe {

namespace {

// splitmix64 finalizer: the rendezvous score mixer. Must be stable — the
// failover target for a (group, member) pair is part of the deterministic
// run contract.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  consumed_ = std::make_unique<std::atomic<bool>[]>(std::max<size_t>(plan_.size(), 1));
  for (const FaultEvent& e : plan_.events()) {
    switch (e.kind) {
      case FaultKind::kMemberCrash:
        any_member_faults_ = true;
        break;
      case FaultKind::kQueueSaturation:
        any_queue_sat_ = true;
        break;
      case FaultKind::kWorkerStall:
        any_stalls_ = true;
        break;
      case FaultKind::kPoolExhaustion:
        any_pool_exhaust_ = true;
        break;
      case FaultKind::kClockSkew:
        any_clock_skew_ = true;
        break;
    }
  }
}

void FaultInjector::ResolvePacketTriggers(
    uint64_t replayed_packets, const std::function<uint64_t(uint64_t)>& time_of) {
  for (FaultEvent& e : plan_.mutable_events()) {
    if (e.at_packet == FaultEvent::kNoPacket) {
      continue;
    }
    if (replayed_packets == 0 || e.at_packet >= replayed_packets) {
      // Beyond the trace: the event never fires during the run.
      e.at_ns = UINT64_MAX;
    } else {
      e.at_ns = time_of(e.at_packet);
    }
  }
}

void FaultInjector::BeginRun(uint32_t members) {
  crashes_.assign(members, MemberCrash{});
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind != FaultKind::kMemberCrash || e.target >= members) {
      continue;
    }
    MemberCrash& c = crashes_[e.target];
    if (e.at_ns < c.crash_ns) {
      c.crash_ns = e.at_ns;
      c.detect_ns =
          e.at_ns >= UINT64_MAX - e.detect_ns ? UINT64_MAX : e.at_ns + e.detect_ns;
    }
  }
  evict_watermark_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < plan_.size(); ++i) {
    consumed_[i].store(false, std::memory_order_relaxed);
  }
  reports_offered_ = 0;
  cells_offered_ = 0;
  reports_shed_ = 0;
  cells_shed_ = 0;
  reports_lost_ = 0;
  cells_lost_ = 0;
  reports_failed_over_ = 0;
  cells_failed_over_ = 0;
  groups_abandoned_ = 0;
  members_crashed_ = 0;
  injected_pool_exhaustions_ = 0;
  saturated_pushes_ = 0;
  fences_ = 0;
  stalls_injected_ = 0;
  watchdog_stalls_ = 0;
  flush_deadlines_ = 0;
  std::lock_guard<std::mutex> lock(groups_mu_);
  lost_groups_.clear();
  failed_over_groups_.clear();
}

FaultInjector::RouteDecision FaultInjector::RouteFor(uint32_t primary,
                                                     uint32_t group_hash,
                                                     uint64_t evict_ns,
                                                     uint32_t members) {
  // Watermark: the latest trace time the router has observed, used as the
  // deterministic end-of-run point for MemberDeadAtFlush.
  uint64_t seen = evict_watermark_.load(std::memory_order_relaxed);
  while (evict_ns > seen && !evict_watermark_.compare_exchange_weak(
                                seen, evict_ns, std::memory_order_relaxed)) {
  }

  RouteDecision decision;
  decision.target = primary;
  if (!any_member_faults_ || primary >= crashes_.size()) {
    return decision;
  }
  const MemberCrash& c = crashes_[primary];
  if (evict_ns < c.crash_ns) {
    return decision;  // Primary still alive at this trace time.
  }
  if (evict_ns < c.detect_ns) {
    // Crash not yet detected: the report was sent down a dead link and is
    // lost in flight (counted, never processed).
    decision.action = RouteDecision::Action::kLost;
    return decision;
  }
  // Detected: rendezvous-hash over the members alive at evict_ns. Highest
  // score wins, so each group sticks to one survivor for the rest of the
  // run and a dead member's range spreads evenly across the others.
  uint64_t best_score = 0;
  uint32_t best_member = 0;
  bool found = false;
  for (uint32_t m = 0; m < members; ++m) {
    if (m < crashes_.size() && evict_ns >= crashes_[m].crash_ns) {
      continue;  // Dead (or dying) at this trace time.
    }
    const uint64_t score = Mix64((static_cast<uint64_t>(group_hash) << 32) | (m + 1));
    if (!found || score > best_score) {
      best_score = score;
      best_member = m;
      found = true;
    }
  }
  if (!found) {
    // Every member is down: shed at the switch with explicit accounting.
    decision.action = RouteDecision::Action::kShed;
    return decision;
  }
  decision.action = RouteDecision::Action::kReroute;
  decision.target = best_member;
  return decision;
}

bool FaultInjector::QueueSaturated(uint32_t member, uint64_t evict_ns) const {
  if (!any_queue_sat_) {
    return false;
  }
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind != FaultKind::kQueueSaturation || e.target != member) {
      continue;
    }
    if (evict_ns >= e.at_ns &&
        (e.duration_ns == 0 || evict_ns - e.at_ns < e.duration_ns)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::MemberDeadAtFlush(uint32_t member) const {
  if (member >= crashes_.size()) {
    return false;
  }
  // Dead only if the crash point falls within the observed trace: a crash
  // scheduled past the last routed eviction never happened this run.
  return crashes_[member].crash_ns <= evict_watermark_.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::TakeStallMs(uint32_t member, uint64_t evict_ns) {
  if (!any_stalls_) {
    return 0;
  }
  const auto& events = plan_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.kind != FaultKind::kWorkerStall || e.target != member ||
        evict_ns < e.at_ns || e.stall_wall_ms == 0) {
      continue;
    }
    bool expected = false;
    if (consumed_[i].compare_exchange_strong(expected, true,
                                             std::memory_order_relaxed)) {
      NoteStall();
      return e.stall_wall_ms;
    }
  }
  return 0;
}

bool FaultInjector::PoolExhausted(uint32_t shard, uint64_t now_ns) const {
  if (!any_pool_exhaust_) {
    return false;
  }
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind != FaultKind::kPoolExhaustion || e.target != shard) {
      continue;
    }
    if (now_ns >= e.at_ns && (e.duration_ns == 0 || now_ns - e.at_ns < e.duration_ns)) {
      return true;
    }
  }
  return false;
}

int64_t FaultInjector::ClockSkewNs(uint32_t shard, uint64_t ts) const {
  if (!any_clock_skew_) {
    return 0;
  }
  int64_t skew = 0;
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind != FaultKind::kClockSkew || e.target != shard || ts < e.at_ns) {
      continue;
    }
    if (e.duration_ns == 0 || ts - e.at_ns < e.duration_ns) {
      skew += e.skew_ns;
    }
  }
  return skew;
}

void FaultInjector::NoteOffered(uint64_t reports, uint64_t cells) {
  reports_offered_.fetch_add(reports, std::memory_order_relaxed);
  cells_offered_.fetch_add(cells, std::memory_order_relaxed);
}

void FaultInjector::NoteShed(uint64_t reports, uint64_t cells) {
  reports_shed_.fetch_add(reports, std::memory_order_relaxed);
  cells_shed_.fetch_add(cells, std::memory_order_relaxed);
  obs::Inc(obs_shed_cells_, cells);
}

void FaultInjector::NoteLost(uint64_t reports, uint64_t cells, uint32_t group_hash) {
  reports_lost_.fetch_add(reports, std::memory_order_relaxed);
  cells_lost_.fetch_add(cells, std::memory_order_relaxed);
  obs::Inc(obs_lost_cells_, cells);
  std::lock_guard<std::mutex> lock(groups_mu_);
  lost_groups_.insert(group_hash);
}

void FaultInjector::NoteFailover(uint64_t reports, uint64_t cells,
                                 uint32_t group_hash) {
  reports_failed_over_.fetch_add(reports, std::memory_order_relaxed);
  cells_failed_over_.fetch_add(cells, std::memory_order_relaxed);
  obs::Inc(obs_failover_reports_, reports);
  std::lock_guard<std::mutex> lock(groups_mu_);
  failed_over_groups_.insert(group_hash);
}

void FaultInjector::NoteFence() {
  fences_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs_fences_);
}

void FaultInjector::NoteStall() { stalls_injected_.fetch_add(1, std::memory_order_relaxed); }

void FaultInjector::NoteWatchdogStall() {
  watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs_watchdog_stalls_);
}

void FaultInjector::NoteFlushDeadline() {
  flush_deadlines_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::NoteAbandonedGroups(uint64_t groups) {
  groups_abandoned_.fetch_add(groups, std::memory_order_relaxed);
}

void FaultInjector::NoteMemberCrashed() {
  members_crashed_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::NoteInjectedPoolExhaustion() {
  injected_pool_exhaustions_.fetch_add(1, std::memory_order_relaxed);
  obs::Inc(obs_pool_exhaustions_);
}

void FaultInjector::NoteSaturatedPush(uint64_t attempts) {
  saturated_pushes_.fetch_add(attempts, std::memory_order_relaxed);
  obs::Inc(obs_saturated_pushes_, attempts);
}

FaultStats FaultInjector::Snapshot() const {
  FaultStats s;
  s.reports_offered = reports_offered_.load(std::memory_order_relaxed);
  s.cells_offered = cells_offered_.load(std::memory_order_relaxed);
  s.reports_shed = reports_shed_.load(std::memory_order_relaxed);
  s.cells_shed = cells_shed_.load(std::memory_order_relaxed);
  s.reports_lost_to_failover = reports_lost_.load(std::memory_order_relaxed);
  s.cells_lost_to_failover = cells_lost_.load(std::memory_order_relaxed);
  s.reports_failed_over = reports_failed_over_.load(std::memory_order_relaxed);
  s.cells_failed_over = cells_failed_over_.load(std::memory_order_relaxed);
  s.groups_abandoned = groups_abandoned_.load(std::memory_order_relaxed);
  s.members_crashed = members_crashed_.load(std::memory_order_relaxed);
  s.injected_pool_exhaustions =
      injected_pool_exhaustions_.load(std::memory_order_relaxed);
  s.saturated_pushes = saturated_pushes_.load(std::memory_order_relaxed);
  s.failover_fences = fences_.load(std::memory_order_relaxed);
  s.stalls_injected = stalls_injected_.load(std::memory_order_relaxed);
  s.watchdog_stall_events = watchdog_stalls_.load(std::memory_order_relaxed);
  s.flush_deadline_exceeded = flush_deadlines_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(groups_mu_);
  s.groups_lost_in_flight = lost_groups_.size();
  s.groups_failed_over = failed_over_groups_.size();
  return s;
}

void FaultInjector::set_obs(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  obs_shed_cells_ = registry->GetCounter("superfe_fault_cells_shed_total", {},
                                         "Cells shed under injected overload/blackout");
  obs_lost_cells_ =
      registry->GetCounter("superfe_fault_cells_lost_failover_total", {},
                           "Cells lost in flight inside the crash-detection window");
  obs_failover_reports_ =
      registry->GetCounter("superfe_fault_reports_failed_over_total", {},
                           "Reports rerouted to a survivor via rendezvous hashing");
  obs_fences_ = registry->GetCounter("superfe_fault_failover_fences_total", {},
                                     "Order-preserving handoff fences issued");
  obs_watchdog_stalls_ =
      registry->GetCounter("superfe_fault_watchdog_stalls_total", {},
                           "Watchdog detections of a stalled worker (edge-triggered)");
  obs_pool_exhaustions_ =
      registry->GetCounter("superfe_fault_pool_exhaustions_total", {},
                           "MGPV long-buffer allocations failed by injection");
  obs_saturated_pushes_ =
      registry->GetCounter("superfe_fault_saturated_pushes_total", {},
                           "Queue push attempts rejected by injected saturation");
}

}  // namespace superfe
