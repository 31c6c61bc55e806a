// Shared fixture of the multi-worker bit-exactness gates (test_storage,
// test_problem, test_service).
//
// A block-diagonal SPD matrix of tridiagonal (2, -1) blocks of
// kOwnedBlockRows rows, solved with partitioned scheduling at steal_rate 0
// and one partition per block.  RCM keeps each block (a connected
// component) contiguous, the block size is a multiple of
// kPartitionAlignRows, and every block holds the same number of nonzeros,
// so the nonzero-balanced cuts fall exactly on block boundaries: every halo
// is empty, no worker ever reads a coordinate another worker writes, and
// every interleaving — any team size, either sync mode — produces the same
// bits.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/gen/partition.hpp"
#include "asyrgs/sparse/coo.hpp"

namespace asyrgs::test {

inline constexpr index_t kOwnedBlockRows = 16;
static_assert(kOwnedBlockRows % kPartitionAlignRows == 0,
              "partition cuts must be able to land on block boundaries");

/// `blocks` tridiagonal (2, -1) blocks of `block_size` rows each.
inline CsrMatrix block_diag_tridiagonal(int blocks,
                                        index_t block_size = kOwnedBlockRows) {
  const index_t n = blocks * block_size;
  CooBuilder builder(n, n);
  for (int blk = 0; blk < blocks; ++blk) {
    const index_t lo = blk * block_size;
    for (index_t i = 0; i < block_size; ++i) {
      builder.add(lo + i, lo + i, 2.0);
      if (i + 1 < block_size) {
        builder.add(lo + i, lo + i + 1, -1.0);
        builder.add(lo + i + 1, lo + i, -1.0);
      }
    }
  }
  return builder.to_csr();
}

/// Partitioned scheduling with one partition per block and no steals.
inline SolveControls owned_block_controls(int blocks) {
  SolveControls c;
  c.partitions = blocks;
  c.steal_rate = 0.0;
  return c;
}

/// Asserts the precondition of the gates: the cut that a partitioned solve
/// of `a` (kOwnedBlockRows-row blocks) uses falls on block boundaries and
/// leaves every halo empty.
inline void expect_owned_only_cut(const CsrMatrix& a, int partitions) {
  const PartitionAnalysis analysis(a);
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(partitions);
  ASSERT_EQ(cut->count(), partitions);
  for (int p = 0; p < cut->count(); ++p) {
    EXPECT_EQ(cut->lo_of(p) % kOwnedBlockRows, 0) << "partition " << p;
    EXPECT_TRUE(cut->halo[static_cast<std::size_t>(p)].empty())
        << "partition " << p;
  }
}

}  // namespace asyrgs::test
