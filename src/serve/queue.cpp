#include "fsi/serve/queue.hpp"

#include <algorithm>

#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"

namespace fsi::serve {

AdmissionQueue::AdmissionQueue(std::size_t max_depth,
                               std::size_t max_per_client)
    : max_depth_(max_depth), max_per_client_(max_per_client) {}

void AdmissionQueue::note_depth_locked() {
  high_water_ = std::max(high_water_, queue_.size());
  obs::metrics::set(obs::metrics::Gauge::ServeQueueDepth,
                    static_cast<double>(queue_.size()));
}

void AdmissionQueue::release_client_locked(std::uint64_t client_id) {
  if (client_id == 0) return;
  auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  if (--it->second == 0) clients_.erase(it);
}

Admit AdmissionQueue::admit(PendingRequest&& r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() >= max_depth_) return Admit::Full;
    if (max_per_client_ != 0 && r.client_id != 0) {
      const auto it = clients_.find(r.client_id);
      if (it != clients_.end() && it->second >= max_per_client_)
        return Admit::OverQuota;
    }
    if (r.client_id != 0) ++clients_[r.client_id];
    queue_.push_back(std::move(r));
    note_depth_locked();
  }
  cv_.notify_one();
  return Admit::Ok;
}

bool AdmissionQueue::try_push(PendingRequest&& r) {
  return admit(std::move(r)) == Admit::Ok;
}

std::vector<PendingRequest> AdmissionQueue::next_batch(std::size_t max_batch) {
  max_batch = std::max<std::size_t>(1, max_batch);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
  std::vector<PendingRequest> batch;
  if (queue_.empty()) return batch;  // shutdown with nothing queued

  const BatchKey key = queue_.front().key();
  const std::int64_t now = obs::now_ns();
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < max_batch;) {
    if (it->key() == key) {
      it->popped_ns = now;  // queue wait ends, batch setup begins
      release_client_locked(it->client_id);
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  note_depth_locked();
  return batch;
}

void AdmissionQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::vector<PendingRequest> AdmissionQueue::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PendingRequest> out;
  out.reserve(queue_.size());
  for (auto& r : queue_) out.push_back(std::move(r));
  queue_.clear();
  clients_.clear();
  note_depth_locked();
  return out;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t AdmissionQueue::max_depth_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

std::size_t AdmissionQueue::client_depth(std::uint64_t client_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client_id);
  return it == clients_.end() ? 0 : it->second;
}

}  // namespace fsi::serve
