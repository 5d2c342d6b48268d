// The benchmark's own tests: percentile helper, self-time arithmetic,
// metric-name charset and key-stream determinism. Run before every
// measurement and on their own with `perfbench --self-test`.
#pragma once

namespace perfbench {

/// Returns the number of failed checks; each failure is printed to stderr.
[[nodiscard]] int run_self_tests();

}  // namespace perfbench
