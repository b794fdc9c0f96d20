#pragma once
// Binary serialization for the expensive experiment artifacts: the offline
// dataset (3,000 flow runs) and the cross-validation result (4 trained
// folds + zero-shot evaluations). Every experiment binary is deterministic,
// so the bench harnesses share these via an on-disk cache instead of each
// re-running the flows — the first bench in a session pays, the rest load.
//
// The dataset header records the insight-vector dimension, so a cache
// written before a change to insight::kInsightDims is rejected on load
// instead of being silently misparsed. The save functions report stream
// failures (full disk, unwritable target) so callers can warn instead of
// leaving truncated files behind.
//
// util::cache_dir() names the cache (INSIGHTALIGN_CACHE_DIR relocates it);
// delete the directory to force regeneration.

#include <optional>
#include <string>

#include "align/dataset.h"
#include "align/evaluator.h"

namespace vpr::align {

/// Returns false when the stream went bad (the file may be truncated and
/// will be rejected by load_dataset).
[[nodiscard]] bool save_dataset(const OfflineDataset& dataset,
                                const QorWeights& weights,
                                const std::string& path);
/// Returns nullopt on missing file, format/magic mismatch, or an
/// insight-dimension mismatch against the current build.
[[nodiscard]] std::optional<OfflineDataset> load_dataset(
    const std::string& path);

[[nodiscard]] bool save_cv_result(const CrossValidationResult& result,
                                  const std::string& path);
[[nodiscard]] std::optional<CrossValidationResult> load_cv_result(
    const std::string& path);

}  // namespace vpr::align
