#include "align/recipe_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/infer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vpr::align {

RecipeModel::RecipeModel(const ModelConfig& config, util::Rng& rng)
    : config_(config),
      token_embed_(3, config.d_model, rng),
      pos_enc_(config.num_recipes, config.d_model, rng),
      insight_embed_(config.insight_dim, config.d_model, rng),
      head_(config.d_model, 1, rng) {
  if (config.num_recipes <= 0 || config.d_model <= 0 ||
      config.insight_dim <= 0 || config.decoder_layers <= 0) {
    throw std::invalid_argument("RecipeModel: bad config");
  }
  decoder_stack_.reserve(static_cast<std::size_t>(config.decoder_layers));
  for (int layer = 0; layer < config.decoder_layers; ++layer) {
    decoder_stack_.push_back(std::make_unique<nn::TransformerDecoderLayer>(
        config.d_model, config.ffn_hidden, rng));
  }
}

nn::Tensor RecipeModel::insight_embedding(
    std::span<const double> insight) const {
  if (insight.size() != static_cast<std::size_t>(config_.insight_dim)) {
    throw std::invalid_argument("RecipeModel: insight dimension mismatch");
  }
  const nn::Tensor iv = nn::Tensor::from(
      std::vector<double>(insight.begin(), insight.end()), 1,
      config_.insight_dim);
  return insight_embed_.forward(iv);
}

std::vector<int> RecipeModel::input_tokens(std::span<const int> decisions,
                                           int steps) const {
  const int n = config_.num_recipes;
  if (steps < 1 || steps > n) {
    throw std::invalid_argument("RecipeModel: bad step count");
  }
  if (static_cast<int>(decisions.size()) < steps - 1) {
    throw std::invalid_argument("RecipeModel: decisions too short");
  }
  // Input token at position 0 is SOS; position t (t>=1) is r_{t-1}.
  std::vector<int> tokens(static_cast<std::size_t>(steps));
  tokens[0] = kTokenSos;
  for (int t = 1; t < steps; ++t) {
    const int d = decisions[static_cast<std::size_t>(t - 1)];
    if (d != 0 && d != 1) {
      throw std::invalid_argument("RecipeModel: decisions must be 0/1");
    }
    tokens[static_cast<std::size_t>(t)] =
        d == 1 ? kTokenSelected : kTokenNotSelected;
  }
  return tokens;
}

nn::Tensor RecipeModel::forward_logits(std::span<const double> insight,
                                       std::span<const int> decisions,
                                       int steps) const {
  if (steps < 0) steps = config_.num_recipes;
  const std::vector<int> tokens = input_tokens(decisions, steps);
  nn::Tensor h = pos_enc_.forward(token_embed_.forward(tokens));
  const nn::Tensor memory = insight_embedding(insight);
  for (const auto& layer : decoder_stack_) {
    h = layer->forward(h, memory);
  }
  return head_.forward(h);  // (steps, 1) logits
}

nn::Tensor RecipeModel::sequence_log_prob(
    std::span<const double> insight, std::span<const int> decisions) const {
  const int n = config_.num_recipes;
  if (static_cast<int>(decisions.size()) != n) {
    throw std::invalid_argument("RecipeModel: need all 40 decisions");
  }
  const nn::Tensor logits = forward_logits(insight, decisions, n);
  // log P(r_t) = logsigmoid(z_t) if selected else logsigmoid(-z_t).
  // Select via constant +/-1 mask so the whole thing stays differentiable.
  std::vector<double> sign(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    sign[static_cast<std::size_t>(t)] =
        decisions[static_cast<std::size_t>(t)] == 1 ? 1.0 : -1.0;
  }
  const nn::Tensor signed_logits =
      nn::mul(logits, nn::Tensor::from(std::move(sign), n, 1));
  return nn::sum(nn::logsigmoid(signed_logits));
}

void RecipeModel::encode_insight(std::span<const double> insight,
                                 double* cross_k, double* cross_v) const {
  const std::size_t d = static_cast<std::size_t>(config_.d_model);
  thread_local std::vector<double> memory;
  memory.resize(d);
  insight_embed_.infer(insight.data(), 1, memory.data());
  for (std::size_t l = 0; l < decoder_stack_.size(); ++l) {
    decoder_stack_[l]->infer_cross_kv(memory.data(), 1, cross_k + l * d,
                                      cross_v + l * d);
  }
}

void RecipeModel::forward_rows(int rows, const int* tokens, const int* pos,
                               const nn::RowCache* caches, int kt_ld,
                               double* logits) const {
  const int d = config_.d_model;
  const std::size_t size = static_cast<std::size_t>(rows) * d;
  thread_local std::vector<double> x;
  thread_local std::vector<double> y;
  x.resize(size);
  y.resize(size);
  // Stack the input rows: token embedding + positional encoding.
  for (int i = 0; i < rows; ++i) {
    double* row = x.data() + static_cast<std::size_t>(i) * d;
    token_embed_.infer_row(tokens[i], row);
    pos_enc_.infer_add_row(pos[i], row);
  }
  for (const auto& layer : decoder_stack_) {
    layer->infer_step_batch(x.data(), rows, pos, caches, kt_ld, 1, y.data());
    x.swap(y);
    caches += rows;
  }
  head_.infer(x.data(), rows, logits);
}

void RecipeModel::infer_logits(std::span<const double> insight,
                               std::span<const int> decisions,
                               double* logits_out) const {
  const int n = config_.num_recipes;
  const std::vector<int> tokens = input_tokens(decisions, n);
  if (insight.size() != static_cast<std::size_t>(config_.insight_dim)) {
    throw std::invalid_argument("RecipeModel: insight dimension mismatch");
  }
  // Prefill: positions 0..n-1 of one lane as one batch, every row on the
  // same per-layer K/V cache. infer_step_batch writes all rows' K/V before
  // any row attends, and row t attends over positions 0..t only, so this
  // is exactly the causal full-sequence forward.
  const std::size_t d = static_cast<std::size_t>(config_.d_model);
  const std::size_t lane = static_cast<std::size_t>(n) * d;
  const std::size_t layers = decoder_stack_.size();
  thread_local std::vector<double> cross_k;
  thread_local std::vector<double> cross_v;
  thread_local std::vector<double> self_kt;
  thread_local std::vector<double> self_v;
  thread_local std::vector<nn::RowCache> caches;
  thread_local std::vector<int> pos;
  cross_k.resize(layers * d);
  cross_v.resize(layers * d);
  self_kt.resize(layers * lane);
  self_v.resize(layers * lane);
  caches.clear();
  for (std::size_t l = 0; l < layers; ++l) {
    caches.insert(caches.end(), static_cast<std::size_t>(n),
                  {self_kt.data() + l * lane, self_v.data() + l * lane,
                   cross_k.data() + l * d, cross_v.data() + l * d});
  }
  pos.resize(static_cast<std::size_t>(n));
  std::iota(pos.begin(), pos.end(), 0);
  encode_insight(insight, cross_k.data(), cross_v.data());
  forward_rows(n, tokens.data(), pos.data(), caches.data(), n, logits_out);
}

double RecipeModel::log_prob(std::span<const double> insight,
                             std::span<const int> decisions) const {
  const int n = config_.num_recipes;
  if (static_cast<int>(decisions.size()) != n) {
    throw std::invalid_argument("RecipeModel: need all 40 decisions");
  }
  std::vector<double> logits(static_cast<std::size_t>(n));
  infer_logits(insight, decisions, logits.data());
  // Same arithmetic order as sequence_log_prob: sign the logit, take the
  // stable logsigmoid, sum ascending over positions.
  double acc = 0.0;
  for (int t = 0; t < n; ++t) {
    const double sign =
        decisions[static_cast<std::size_t>(t)] == 1 ? 1.0 : -1.0;
    acc += nn::infer::logsigmoid_value(logits[static_cast<std::size_t>(t)] *
                                       sign);
  }
  return acc;
}

std::vector<double> RecipeModel::step_probs(
    std::span<const double> insight, std::span<const int> decisions) const {
  const int n = config_.num_recipes;
  std::vector<double> probs(static_cast<std::size_t>(n));
  infer_logits(insight, decisions, probs.data());
  for (double& p : probs) p = nn::infer::stable_sigmoid(p);
  return probs;
}

DecodeSession RecipeModel::decode(std::span<const double> insight,
                                  int max_lanes) const {
  return DecodeSession(*this, insight, max_lanes);
}

// ----- DecodeSession -----

DecodeSession::DecodeSession(const RecipeModel& model,
                             std::span<const double> insight, int max_lanes)
    : model_(&model),
      max_lanes_(max_lanes),
      n_(model.config().num_recipes),
      d_(model.config().d_model),
      layers_(static_cast<int>(model.decoder_stack_.size())) {
  if (max_lanes < 1) {
    throw std::invalid_argument("DecodeSession: max_lanes < 1");
  }
  if (insight.size() != static_cast<std::size_t>(model.config().insight_dim)) {
    throw std::invalid_argument("DecodeSession: insight dimension mismatch");
  }
  const std::size_t d = static_cast<std::size_t>(d_);
  cross_k_.resize(static_cast<std::size_t>(layers_) * d);
  cross_v_.resize(static_cast<std::size_t>(layers_) * d);
  const std::size_t lane_cache = static_cast<std::size_t>(n_) * d;
  self_k_.resize(static_cast<std::size_t>(layers_) * max_lanes_ * lane_cache);
  self_v_.resize(self_k_.size());
  len_.assign(static_cast<std::size_t>(max_lanes_), 0);
  rebind(insight);
}

void DecodeSession::rebind(std::span<const double> insight) {
  if (insight.size() !=
      static_cast<std::size_t>(model_->config().insight_dim)) {
    throw std::invalid_argument("DecodeSession: insight dimension mismatch");
  }
  model_->encode_insight(insight, cross_k_.data(), cross_v_.data());
  std::fill(len_.begin(), len_.end(), 0);
}

void DecodeSession::rebind(const RecipeModel& model,
                           std::span<const double> insight) {
  const ModelConfig& config = model.config();
  if (config.num_recipes != n_ || config.d_model != d_ ||
      static_cast<int>(model.decoder_stack_.size()) != layers_) {
    throw std::invalid_argument(
        "DecodeSession: cannot rebind across architectures");
  }
  model_ = &model;
  rebind(insight);
}

double* DecodeSession::self_kt(int layer, int lane) {
  const std::size_t lane_cache = static_cast<std::size_t>(n_) * d_;
  return self_k_.data() +
         (static_cast<std::size_t>(layer) * max_lanes_ + lane) * lane_cache;
}

double* DecodeSession::self_v(int layer, int lane) {
  const std::size_t lane_cache = static_cast<std::size_t>(n_) * d_;
  return self_v_.data() +
         (static_cast<std::size_t>(layer) * max_lanes_ + lane) * lane_cache;
}

void DecodeSession::check_lane(int lane) const {
  if (lane < 0 || lane >= max_lanes_) {
    throw std::invalid_argument("DecodeSession: lane out of range");
  }
}

int DecodeSession::length(int lane) const {
  check_lane(lane);
  return len_[static_cast<std::size_t>(lane)];
}

void DecodeSession::reset_lane(int lane) {
  check_lane(lane);
  len_[static_cast<std::size_t>(lane)] = 0;
}

void DecodeSession::copy_lane(int dst, int src) {
  check_lane(dst);
  check_lane(src);
  if (dst == src) return;
  const int rows = len_[static_cast<std::size_t>(src)];
  const std::size_t used = static_cast<std::size_t>(rows) * d_;
  for (int l = 0; l < layers_; ++l) {
    // K^T is feature-major: the `rows` used positions are a rows-long
    // prefix of each of the d feature lanes (stride n_ between lanes).
    const double* src_kt = self_kt(l, src);
    double* dst_kt = self_kt(l, dst);
    for (int c = 0; c < d_; ++c) {
      std::copy_n(src_kt + static_cast<std::size_t>(c) * n_, rows,
                  dst_kt + static_cast<std::size_t>(c) * n_);
    }
    std::copy_n(self_v(l, src), used, self_v(l, dst));
  }
  len_[static_cast<std::size_t>(dst)] = rows;
}

int DecodeSession::step_token(int lane, int prev_decision) const {
  check_lane(lane);
  const int t = len_[static_cast<std::size_t>(lane)];
  if (t >= n_) {
    throw std::invalid_argument("DecodeSession: lane already complete");
  }
  if (t == 0) return kTokenSos;
  if (prev_decision != 0 && prev_decision != 1) {
    throw std::invalid_argument("DecodeSession: decisions must be 0/1");
  }
  return prev_decision == 1 ? kTokenSelected : kTokenNotSelected;
}

double DecodeSession::step(int lane, int prev_decision) {
  const BatchStep one{this, lane, prev_decision};
  double p = 0.0;
  step_batch({&one, 1}, &p);
  return p;
}

void DecodeSession::step_batch(std::span<const BatchStep> steps,
                               double* probs_out) {
  const int rows = static_cast<int>(steps.size());
  if (rows == 0) return;
  obs::TraceSpan span{"decode.step_batch", "nn"};
  span.arg("rows", rows);
  static obs::Counter& step_rows_counter =
      obs::MetricsRegistry::instance().counter(
          "decode.step_rows", "lane-steps executed via step_batch");
  step_rows_counter.inc(static_cast<std::uint64_t>(rows));
  const RecipeModel* model = steps[0].session->model_;
  for (const BatchStep& s : steps) {
    if (s.session == nullptr || s.session->model_ != model) {
      throw std::invalid_argument(
          "DecodeSession::step_batch: sessions must share one model");
    }
  }
  const DecodeSession& lead = *steps[0].session;
  const std::size_t d = static_cast<std::size_t>(lead.d_);
  thread_local std::vector<int> tokens;
  thread_local std::vector<int> pos;
  thread_local std::vector<nn::RowCache> caches;
  tokens.resize(steps.size());
  pos.resize(steps.size());
  caches.resize(static_cast<std::size_t>(lead.layers_) * steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const BatchStep& s = steps[i];
    DecodeSession& session = *s.session;
    tokens[i] = session.step_token(s.lane, s.prev_decision);
    pos[i] = session.len_[static_cast<std::size_t>(s.lane)];
    for (int l = 0; l < lead.layers_; ++l) {
      const std::size_t layer = static_cast<std::size_t>(l);
      nn::RowCache& c = caches[layer * steps.size() + i];
      c.self_kt = session.self_kt(l, s.lane);
      c.self_v = session.self_v(l, s.lane);
      c.cross_kt = session.cross_k_.data() + layer * d;
      c.cross_v = session.cross_v_.data() + layer * d;
    }
  }
  model->forward_rows(rows, tokens.data(), pos.data(), caches.data(),
                      lead.n_, probs_out);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const BatchStep& s = steps[i];
    s.session->len_[static_cast<std::size_t>(s.lane)] = pos[i] + 1;
    probs_out[i] = nn::infer::stable_sigmoid(probs_out[i]);
  }
}

std::vector<nn::Tensor> RecipeModel::parameters() const {
  std::vector<nn::Tensor> params;
  const auto append = [&params](const nn::Module& m) {
    const auto p = m.parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  append(token_embed_);
  append(pos_enc_);
  append(insight_embed_);
  for (const auto& layer : decoder_stack_) append(*layer);
  append(head_);
  return params;
}

}  // namespace vpr::align
