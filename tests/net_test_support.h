// Shared rigs of the network serving tests (net_server_test,
// net_chaos_test, net_overload_test): generator-made period batches to
// populate an index, and the bit-level comparison every "answer over the
// socket equals a direct Reader call" assertion uses.

#ifndef CORRTRACK_TESTS_NET_TEST_SUPPORT_H_
#define CORRTRACK_TESTS_NET_TEST_SUPPORT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "gen/tweet_generator.h"
#include "serve/correlation_index.h"

namespace corrtrack::net::testing {

/// Generator-made period batches: realistic tag skew, deterministic
/// content.
inline std::vector<std::vector<JaccardEstimate>> MakePeriods(int periods,
                                                             int docs,
                                                             uint64_t seed) {
  gen::GeneratorConfig config;
  config.seed = seed;
  gen::TweetGenerator generator(config);
  std::vector<std::vector<JaccardEstimate>> out;
  for (int p = 0; p < periods; ++p) {
    SubsetCounterTable counters;
    for (int d = 0; d < docs; ++d) counters.Observe(generator.Next().tags);
    out.push_back(counters.ReportAll(2));
  }
  return out;
}

/// IEEE-754 bit pattern: "bit-identical" means equal bits, not approximate
/// equality.
inline uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline void ExpectSameScored(const std::vector<serve::ScoredSet>& via_socket,
                             const std::vector<serve::ScoredSet>& direct,
                             const char* what) {
  ASSERT_EQ(via_socket.size(), direct.size()) << what;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_socket[i].tags, direct[i].tags) << what << " [" << i << "]";
    EXPECT_EQ(Bits(via_socket[i].coefficient), Bits(direct[i].coefficient))
        << what << " [" << i << "]";
    EXPECT_EQ(via_socket[i].period_end, direct[i].period_end)
        << what << " [" << i << "]";
  }
}

}  // namespace corrtrack::net::testing

#endif  // CORRTRACK_TESTS_NET_TEST_SUPPORT_H_
