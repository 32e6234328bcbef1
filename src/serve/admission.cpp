#include "serve/admission.h"

#include <stdexcept>

namespace subscale::serve {

void AdmissionOptions::validate() const {
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "AdmissionOptions: queue_capacity must be >= 1");
  }
  if (per_client_inflight == 0) {
    throw std::invalid_argument(
        "AdmissionOptions: per_client_inflight must be >= 1");
  }
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  options_.validate();
}

Admission AdmissionController::on_arrival(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  // Fairness first: a client at its own cap is throttled even when the
  // daemon has headroom — that is what keeps one flooder from owning
  // the whole queue.
  const std::size_t mine = per_client_[client];
  if (mine >= options_.per_client_inflight) return Admission::kThrottled;
  if (inflight_ >= options_.queue_capacity) {
    if (mine == 0) per_client_.erase(client);
    return Admission::kOverloaded;
  }
  ++inflight_;
  ++per_client_[client];
  return Admission::kAdmit;
}

void AdmissionController::on_complete(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ > 0) --inflight_;
  auto it = per_client_.find(client);
  if (it != per_client_.end()) {
    if (it->second > 0) --it->second;
    if (it->second == 0) per_client_.erase(it);  // bound the map by clients
  }
}

std::size_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

std::size_t AdmissionController::client_inflight(
    const std::string& client) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_client_.find(client);
  return it == per_client_.end() ? 0 : it->second;
}

}  // namespace subscale::serve
