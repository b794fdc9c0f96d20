#include "serve/arena.h"

#include <stdexcept>

namespace vpr::serve {

SessionArena::SessionArena(const align::RecipeModel& model,
                           int lanes_per_session)
    : model_(&model), lanes_(lanes_per_session) {
  if (lanes_per_session < 1) {
    throw std::invalid_argument("SessionArena: lanes_per_session < 1");
  }
}

align::DecodeSession* SessionArena::acquire(std::span<const double> insight) {
  if (!free_.empty()) {
    align::DecodeSession* session = free_.back();
    free_.pop_back();
    // The model-taking rebind covers hot swap: a free session may still
    // reference a retired (even destroyed) model version, which rebind
    // never dereferences.
    session->rebind(*model_, insight);
    ++reuses_;
    return session;
  }
  pool_.push_back(std::make_unique<align::DecodeSession>(
      model_->decode(insight, lanes_)));
  ++created_;
  return pool_.back().get();
}

void SessionArena::release(align::DecodeSession* session) {
  if (session == nullptr) return;
  free_.push_back(session);
}

}  // namespace vpr::serve
