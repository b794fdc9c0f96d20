#pragma once
// Beam search over the 40-step recipe decision sequence (paper Algorithm 1,
// BeamSearch): maintains the K highest-cumulative-log-probability partial
// sequences, expanding each with r_t in {0, 1} at every step, and returns
// the K complete recipe sets.

#include <cstdint>
#include <span>
#include <vector>

#include "align/recipe_model.h"
#include "flow/recipe.h"

namespace vpr::align {

struct BeamCandidate {
  flow::RecipeSet recipes;
  double log_prob = 0.0;
};

/// Incremental beam-search state machine: one decode position per
/// pending()/apply() round. Splitting the per-step probability queries from
/// the expand/select logic lets a caller choose how the probabilities are
/// produced — one request's lanes stacked into one step_batch
/// (beam_search), from the tape (beam_search_reference), or stacked across
/// many concurrent requests into one step_batch (serve::RecommendService).
/// All drivers share this expansion code, so candidates and scores are
/// bitwise identical across them.
class BeamDecoder {
 public:
  /// A probability query for one beam entry at the current position:
  /// evaluate P(r_t = 1 | prefix) on `lane` by feeding `prev_decision`
  /// (prefix bit t-1; 0 at t == 0). `prefix_mask` packs the entry's full
  /// prefix (bit b == decision r_b) for drivers without a lane cache.
  struct StepRef {
    int lane = 0;
    int prev_decision = 0;
    std::uint64_t prefix_mask = 0;
  };

  /// KV-cached decoding: uses lanes [0, 2 * beam_width) of `session`. A
  /// parent's first surviving child inherits the parent's lane in place;
  /// each further child clones the cache into an unoccupied lane, so a
  /// step costs at most width - 1 lane copies (usually far fewer) instead
  /// of one per survivor. Resets those lanes; the session must outlive
  /// *this.
  BeamDecoder(DecodeSession& session, int beam_width);
  /// Lane-less decoding for drivers that compute probabilities from the
  /// prefix mask alone (the tape reference oracle).
  BeamDecoder(int num_recipes, int beam_width);

  [[nodiscard]] bool done() const noexcept { return t_ >= n_; }
  /// Current decode position in [0, num_recipes].
  [[nodiscard]] int position() const noexcept { return t_; }
  [[nodiscard]] int beam_width() const noexcept { return width_; }
  /// One query per live beam entry for position(); empty once done.
  [[nodiscard]] std::span<const StepRef> pending() const noexcept {
    return refs_;
  }
  /// Consume P(r_t = 1) per pending() entry (same order), expand every
  /// entry with r_t in {0, 1}, keep the best beam_width, and advance.
  void apply(std::span<const double> probs);
  /// The current beam, best first (complete recipe sets once done()).
  [[nodiscard]] std::vector<BeamCandidate> result() const;

 private:
  struct Partial {
    std::uint64_t mask = 0;
    double score = 0.0;
    int lane = 0;
  };
  void fill_pending();

  DecodeSession* session_ = nullptr;  // null => lane-less
  int n_ = 0;
  int width_ = 0;
  int t_ = 0;
  std::vector<Partial> beam_;
  std::vector<Partial> expanded_;
  std::vector<StepRef> refs_;
  std::vector<char> lane_state_;  // scratch for survivor lane assignment
};

/// Top-K recipe sets under the model's policy for the given insight,
/// ordered by descending cumulative log probability. Runs on a KV-cached
/// DecodeSession (one lane per beam entry, all live entries advanced by one
/// step_batch per position), so each expansion costs O(prefix) instead of
/// a full O(prefix^2) forward; candidates and scores are bitwise identical
/// to beam_search_reference.
[[nodiscard]] std::vector<BeamCandidate> beam_search(
    const RecipeModel& model, std::span<const double> insight, int beam_width);

/// Reference beam search driving the autograd-tape forward for every
/// (beam entry, step) expansion — the pre-KV-cache implementation, kept as
/// the equivalence oracle for tests and the speedup baseline for the
/// micro-benchmarks.
[[nodiscard]] std::vector<BeamCandidate> beam_search_reference(
    const RecipeModel& model, std::span<const double> insight, int beam_width);

}  // namespace vpr::align
