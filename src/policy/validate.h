// Structural validation of a parsed policy: operator ordering, field
// references, reducing-function parameters and granularity-chain
// consistency.
#ifndef SUPERFE_POLICY_VALIDATE_H_
#define SUPERFE_POLICY_VALIDATE_H_

#include "common/status.h"
#include "policy/ast.h"

namespace superfe {

// Validates an assembled policy; the parser and the compiler both call it.
// On success the policy may be normalized in place (granularity chain sorted
// coarse -> fine).
Status ValidatePolicy(Policy& policy);

}  // namespace superfe

#endif  // SUPERFE_POLICY_VALIDATE_H_
