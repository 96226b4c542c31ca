#include "relayer/query_cache.hpp"

#include <algorithm>
#include <utility>

namespace relayer {

namespace {

std::size_t page_bytes(const rpc::TxSearchPage& page) {
  // Estimated wire footprint: per-tx envelope + raw tx + event payload.
  std::size_t total = 256;
  for (const rpc::TxResponse& tx : page.txs) {
    total += 128 + tx.tx.size_bytes() + tx.event_bytes();
  }
  return total;
}

std::size_t header_bytes(const rpc::Server::HeaderInfo& info) {
  // Header + one commit signature per validator; a flat-rate stand-in is
  // fine since headers are small and uniform.
  return 512 + 128 * info.commit.signatures.size();
}

std::size_t abci_bytes(const rpc::Server::AbciQueryResult& res) {
  return 256 + res.value.size() + res.proof.key.size() +
         res.proof.value.size();
}

}  // namespace

void QueryCache::set_telemetry(telemetry::Hub* hub, const std::string& name) {
  hub_ = hub;
  if (auto* t = telemetry::tracer(hub_)) {
    track_ = t->track(name, "query_cache");
  }
  if (auto* r = telemetry::counter_store(hub_, own_counters_)) {
    hits_ctr_ = r->counter(name + ".query_cache.hits");
    misses_ctr_ = r->counter(name + ".query_cache.misses");
    evictions_ctr_ = r->counter(name + ".query_cache.evictions");
    invalidations_ctr_ = r->counter(name + ".query_cache.invalidations");
    insertions_ctr_ = r->counter(name + ".query_cache.insertions");
    stale_rejections_ctr_ = r->counter(name + ".query_cache.stale_rejections");
  }
  if (auto* m = telemetry::metrics(hub_)) {
    bytes_gauge_ = m->gauge(name + ".query_cache.bytes");
  }
}

QueryCache::Stats QueryCache::stats() const {
  // In Stats field order.
  return {hits_ctr_->value(),          misses_ctr_->value(),
          insertions_ctr_->value(),    evictions_ctr_->value(),
          invalidations_ctr_->value(), stale_rejections_ctr_->value(),
          bytes_};
}

const QueryCache::Entry* QueryCache::lookup(const Key& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to hot end
  return &*it->second;
}

void QueryCache::insert(Key key, Payload payload, std::size_t bytes) {
  if (bytes > config_.max_bytes) return;  // would purge the whole cache
  if (index_.contains(key)) return;       // duplicate in-flight misses
  lru_.push_front(Entry{std::move(key), bytes, std::move(payload)});
  index_[lru_.front().key] = lru_.begin();
  bytes_ += bytes;
  insertions_ctr_->add();
  while (bytes_ > config_.max_bytes) evict_coldest();
  if (bytes_gauge_) bytes_gauge_->set(static_cast<double>(bytes_));
}

QueryCache::Index::iterator QueryCache::erase(Index::iterator it) {
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  const auto next = index_.erase(it);
  if (bytes_gauge_) bytes_gauge_->set(static_cast<double>(bytes_));
  return next;
}

void QueryCache::evict_coldest() {
  if (lru_.empty()) return;
  evictions_ctr_->add();
  if (auto* t = telemetry::tracer(hub_)) {
    t->instant(track_, "evict", sched_.now());
  }
  erase(index_.find(lru_.back().key));
}

void QueryCache::serve_hit(const rpc::Server& server, const char* what,
                           std::function<void()> deliver) {
  hits_ctr_->add();
  const sim::Duration cost = server.cost_model().cache_hit_cost;
  if (auto* t = telemetry::tracer(hub_)) {
    t->complete(track_, what, sched_.now(), cost);
  }
  sched_.schedule_after(cost, std::move(deliver));
}

void QueryCache::query_packet_events(
    rpc::Server& server, net::MachineId client, chain::Height height,
    const std::string& event_type, std::uint64_t seq_begin,
    std::uint64_t seq_end,
    std::function<void(util::Result<rpc::TxSearchPage>)> cb) {
  if (!config_.enabled) {
    server.query_packet_events(client, height, event_type, seq_begin, seq_end,
                               std::move(cb));
    return;
  }
  Key key{&server, Kind::kPage, height, seq_begin, seq_end, false, event_type};
  if (const Entry* e = lookup(key)) {
    serve_hit(server, "hit_page",
              [cb = std::move(cb),
               page = std::get<rpc::TxSearchPage>(e->payload)]() mutable {
                cb(std::move(page));
              });
    return;
  }
  misses_ctr_->add();
  server.query_packet_events(
      client, height, event_type, seq_begin, seq_end,
      [this, key = std::move(key),
       cb = std::move(cb)](util::Result<rpc::TxSearchPage> res) mutable {
        if (res.is_ok()) {
          insert(std::move(key), res.value(), page_bytes(res.value()));
        }
        cb(std::move(res));
      });
}

void QueryCache::query_header(
    rpc::Server& server, net::MachineId client, chain::Height height,
    std::function<void(util::Result<rpc::Server::HeaderInfo>)> cb) {
  if (!config_.enabled) {
    server.query_header(client, height, std::move(cb));
    return;
  }
  Key key{&server, Kind::kHeader, height, 0, 0, false, {}};
  if (const Entry* e = lookup(key)) {
    serve_hit(server, "hit_header",
              [cb = std::move(cb),
               info = std::get<rpc::Server::HeaderInfo>(e->payload)]() mutable {
                cb(std::move(info));
              });
    return;
  }
  misses_ctr_->add();
  server.query_header(
      client, height,
      [this, key = std::move(key), cb = std::move(cb)](
          util::Result<rpc::Server::HeaderInfo> res) mutable {
        if (res.is_ok()) {
          insert(std::move(key), res.value(), header_bytes(res.value()));
        }
        cb(std::move(res));
      });
}

void QueryCache::abci_query(
    rpc::Server& server, net::MachineId client, const std::string& key_str,
    bool prove,
    std::function<void(util::Result<rpc::Server::AbciQueryResult>)> cb) {
  if (!config_.enabled) {
    server.abci_query(client, key_str, prove, std::move(cb));
    return;
  }
  // Store queries answer at the latest committed height, so kAbci entries
  // key at height 0; the answer height rides in the cached payload itself
  // and on_height_advance judges staleness from it.
  Key probe{&server, Kind::kAbci, 0, 0, 0, prove, key_str};
  if (const Entry* e = lookup(probe)) {
    serve_hit(
        server, "hit_proof",
        [cb = std::move(cb),
         res = std::get<rpc::Server::AbciQueryResult>(e->payload)]() mutable {
          cb(std::move(res));
        });
    return;
  }
  misses_ctr_->add();
  server.abci_query(
      client, key_str, prove,
      [this, &server, probe = std::move(probe), cb = std::move(cb)](
          util::Result<rpc::Server::AbciQueryResult> res) mutable {
        if (res.is_ok()) {
          // Guard against caching a response the chain has already moved
          // past: when this query was queued the height watermark may have
          // advanced (the worker pool reorders completions freely), and
          // on_height_advance has already swept — a late insert would pin a
          // stale proof until the next advance.
          const auto seen = observed_height_.find(&server);
          if (seen != observed_height_.end() &&
              res.value().height < seen->second) {
            stale_rejections_ctr_->add();
          } else {
            insert(std::move(probe), res.value(), abci_bytes(res.value()));
          }
        }
        cb(std::move(res));
      });
}

void QueryCache::on_height_advance(const rpc::Server& server,
                                   chain::Height height) {
  if (!config_.enabled) return;
  chain::Height& seen = observed_height_[&server];
  seen = std::max(seen, height);
  for (auto it = index_.begin(); it != index_.end();) {
    const Key& k = it->first;
    if (k.kind == Kind::kAbci && k.server == &server &&
        std::get<rpc::Server::AbciQueryResult>(it->second->payload).height <
            height) {
      invalidations_ctr_->add();
      it = erase(it);
    } else {
      ++it;
    }
  }
}

void QueryCache::invalidate_page(const rpc::Server& server,
                                 chain::Height height,
                                 const std::string& event_type,
                                 std::uint64_t seq_begin,
                                 std::uint64_t seq_end) {
  if (!config_.enabled) return;
  const Key key{&server, Kind::kPage, height, seq_begin, seq_end, false,
                event_type};
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  invalidations_ctr_->add();
  erase(it);
}

}  // namespace relayer
