// RPC server tests: serialized request processing (the paper's core
// bottleneck), endpoint behaviour, queue overflow, and the 16 MB WebSocket
// frame limit (§V).

#include <gtest/gtest.h>

#include <optional>

#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "relayer/query_cache.hpp"
#include "rpc/server.hpp"

namespace {

/// A deep copy of an event sequence, for comparing against views later.
template <typename Events>
std::vector<chain::Event> copy_events(const Events& events) {
  return {events.begin(), events.end()};
}

bool same_events(const std::vector<chain::Event>& a,
                 const std::vector<chain::Event>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const chain::Event& x, const chain::Event& y) {
                      return x.type == y.type && x.attributes == y.attributes;
                    });
}

struct RpcFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched, [] {
                         net::NetworkConfig c;
                         c.jitter_fraction = 0.0;
                         return c;
                       }()};
  cosmos::CosmosApp app{"rpc-chain"};
  chain::Ledger ledger{"rpc-chain"};
  chain::Mempool mempool{app, 10'000};
  rpc::CostModel cost;
  std::unique_ptr<rpc::Server> server;

  void SetUp() override {
    app.add_genesis_account("alice", 1'000'000'000);
    cost.service_jitter = 0.0;  // deterministic service times for assertions
    server = std::make_unique<rpc::Server>(sched, network, /*machine=*/0,
                                           ledger, mempool, app, cost);
  }

  chain::Tx make_tx(std::uint64_t seq, std::size_t msgs = 1) {
    chain::Tx tx;
    tx.sender = "alice";
    tx.sequence = seq;
    tx.gas_limit = 100'000;
    tx.fee = 1'000;
    for (std::size_t i = 0; i < msgs; ++i) {
      tx.msgs.push_back(chain::Msg{"/x", util::to_bytes("m")});
    }
    return tx;
  }

  /// Commits a block with the given txs and per-tx events directly into the
  /// ledger (no consensus needed for RPC tests).
  void commit_block(std::vector<chain::Tx> txs,
                    std::size_t event_bytes_per_tx = 200) {
    chain::Block block;
    block.header.chain_id = "rpc-chain";
    block.header.height = ledger.height() + 1;
    block.header.time = sched.now();
    std::vector<chain::DeliverTxResult> results;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      chain::DeliverTxResult r;
      chain::Event ev;
      ev.type = "send_packet";
      ev.attributes = {
          {"packet_sequence", std::to_string(i + 1)},
          {"pad", std::string(event_bytes_per_tx, 'x')},
      };
      r.events.push_back(std::move(ev));
      results.push_back(std::move(r));
    }
    block.txs = std::move(txs);
    ledger.append(std::move(block), std::move(results), app.store().root(),
                  chain::Commit{});
    server->on_block_committed(*ledger.block_at(ledger.height()),
                               *ledger.results_at(ledger.height()));
  }
};

TEST_F(RpcFixture, BroadcastAdmitsValidTx) {
  util::Status result = util::Status::error(util::ErrorCode::kInternal, "no cb");
  server->broadcast_tx_sync(0, make_tx(0),
                            [&](util::Status s) { result = s; });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(result.is_ok());
  EXPECT_EQ(mempool.size(), 1u);
}

TEST_F(RpcFixture, BroadcastRejectsBadSequence) {
  util::Status result;
  server->broadcast_tx_sync(0, make_tx(9),
                            [&](util::Status s) { result = s; });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(result.code(), util::ErrorCode::kSequenceMismatch);
}

TEST_F(RpcFixture, RequestsAreServicedSerially) {
  // Two expensive queries on a block: the second completes a full service
  // time after the first (single-threaded RPC).
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(make_tx(i, 100));
  commit_block(std::move(txs), 20'000);

  std::vector<sim::TimePoint> done;
  for (int i = 0; i < 2; ++i) {
    server->tx_search_height(0, 1, 1, 30, [&](util::Result<rpc::TxSearchPage>) {
      done.push_back(sched.now());
    });
  }
  sched.run_until(sim::seconds(60));
  ASSERT_EQ(done.size(), 2u);
  const sim::Duration gap = done[1] - done[0];
  // The gap must be at least the scan cost of the block (not just network).
  EXPECT_GT(gap, cost.scan_cost(ledger.block_event_bytes(1)) / 2);
}

TEST_F(RpcFixture, ParallelAblationOverlapsRequests) {
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(make_tx(i, 100));
  commit_block(std::move(txs), 20'000);
  server->set_query_workers(8);

  std::vector<sim::TimePoint> done;
  for (int i = 0; i < 2; ++i) {
    server->tx_search_height(0, 1, 1, 30, [&](util::Result<rpc::TxSearchPage>) {
      done.push_back(sched.now());
    });
  }
  sched.run_until(sim::seconds(60));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_LT(done[1] - done[0], sim::millis(5));
}

TEST_F(RpcFixture, QueryTxFindsCommittedTx) {
  const chain::Tx tx = make_tx(0);
  const chain::TxHash hash = tx.hash();
  commit_block({tx});
  bool found = false;
  server->query_tx(0, hash, [&](util::Result<rpc::TxResponse> res) {
    ASSERT_TRUE(res.is_ok());
    EXPECT_EQ(res.value().height, 1);
    EXPECT_EQ(res.value().hash(), hash);
    found = true;
  });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(found);
}

TEST_F(RpcFixture, QueryTxNotFound) {
  bool called = false;
  server->query_tx(0, crypto::sha256(util::to_bytes("nope")),
                   [&](util::Result<rpc::TxResponse> res) {
                     EXPECT_EQ(res.status().code(), util::ErrorCode::kNotFound);
                     called = true;
                   });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
}

TEST_F(RpcFixture, TxSearchPagination) {
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 75; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs));

  std::vector<std::size_t> page_sizes;
  std::uint32_t total = 0;
  for (std::uint32_t page = 1; page <= 3; ++page) {
    server->tx_search_height(0, 1, page, 30,
                             [&](util::Result<rpc::TxSearchPage> res) {
                               ASSERT_TRUE(res.is_ok());
                               page_sizes.push_back(res.value().txs.size());
                               total = res.value().total_count;
                             });
  }
  sched.run_until(sim::seconds(60));
  EXPECT_EQ(page_sizes, (std::vector<std::size_t>{30, 30, 15}));
  EXPECT_EQ(total, 75u);
}

TEST_F(RpcFixture, PacketEventQueryFiltersBySequenceRange) {
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 10; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs));  // packet_sequence attributes 1..10

  std::size_t matches = 0;
  server->query_packet_events(0, 1, "send_packet", 3, 7,
                              [&](util::Result<rpc::TxSearchPage> res) {
                                ASSERT_TRUE(res.is_ok());
                                matches = res.value().txs.size();
                              });
  sched.run_until(sim::seconds(30));
  EXPECT_EQ(matches, 5u);
}

TEST_F(RpcFixture, PacketEventRangeQueryScansMultipleBlocks) {
  commit_block({make_tx(0)});
  commit_block({make_tx(1)});
  commit_block({make_tx(2)});
  std::size_t matches = 0;
  server->query_packet_events_range(0, 1, 3, "send_packet", 1, 100,
                                    [&](util::Result<rpc::TxSearchPage> res) {
                                      ASSERT_TRUE(res.is_ok());
                                      matches = res.value().txs.size();
                                    });
  sched.run_until(sim::seconds(60));
  EXPECT_EQ(matches, 3u);
}

TEST_F(RpcFixture, AbciQueryReturnsValueAndProof) {
  app.store().set("some/key", util::to_bytes("payload"));
  bool called = false;
  server->abci_query(0, "some/key", true,
                     [&](util::Result<rpc::Server::AbciQueryResult> res) {
                       ASSERT_TRUE(res.is_ok());
                       EXPECT_TRUE(res.value().exists);
                       EXPECT_EQ(util::to_string(res.value().value), "payload");
                       EXPECT_TRUE(chain::verify_store_proof(
                           res.value().proof, app.store().root()));
                       called = true;
                     });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
}

TEST_F(RpcFixture, AbciQueryNonExistence) {
  bool called = false;
  server->abci_query(0, "missing", true,
                     [&](util::Result<rpc::Server::AbciQueryResult> res) {
                       ASSERT_TRUE(res.is_ok());
                       EXPECT_FALSE(res.value().exists);
                       EXPECT_FALSE(res.value().proof.exists);
                       called = true;
                     });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
}

TEST_F(RpcFixture, PrefixQueryListsKeys) {
  app.store().set("pre/a", {});
  app.store().set("pre/b", {});
  app.store().set("other", {});
  std::vector<std::string> keys;
  server->abci_query_prefix(0, "pre/",
                            [&](std::vector<std::string> k) { keys = k; });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(keys, (std::vector<std::string>{"pre/a", "pre/b"}));
}

TEST_F(RpcFixture, StatusReportsHeight) {
  commit_block({make_tx(0)});
  chain::Height h = 0;
  server->status(0, [&](rpc::Server::StatusInfo info) { h = info.height; });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(h, 1);
}

TEST_F(RpcFixture, QueueOverflowRejects) {
  // Shrink the queue and flood it with expensive queries; late requests get
  // UNAVAILABLE (the Table I submission-collapse mechanism).
  cost.request_queue_capacity = 4;
  server = std::make_unique<rpc::Server>(sched, network, 0, ledger, mempool,
                                         app, cost);
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(make_tx(i, 100));
  commit_block(std::move(txs), 50'000);

  int ok = 0, rejected = 0;
  for (int i = 0; i < 20; ++i) {
    server->tx_search_height(0, 1, 1, 30,
                             [&](util::Result<rpc::TxSearchPage> res) {
                               if (res.is_ok()) ++ok;
                               else if (res.status().code() ==
                                        util::ErrorCode::kUnavailable)
                                 ++rejected;
                             });
  }
  sched.run_until(sim::seconds(600));
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + rejected, 20);
  EXPECT_EQ(server->requests_rejected(), static_cast<std::uint64_t>(rejected));
}

TEST_F(RpcFixture, WebSocketDeliversEventFrames) {
  std::vector<rpc::NewBlockFrame> frames;
  server->subscribe_new_block(0, [&](const rpc::NewBlockFrame& f) {
    frames.push_back(f);
  });
  commit_block({make_tx(0), make_tx(1)});
  sched.run_until(sim::seconds(2));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].events_ok);
  EXPECT_EQ(frames[0].height, 1);
  EXPECT_EQ(frames[0].tx_count, 2u);
  EXPECT_EQ(std::ranges::distance(frames[0].events()), 2);
}

TEST_F(RpcFixture, WebSocketSixteenMegabyteLimit) {
  std::vector<rpc::NewBlockFrame> frames;
  server->subscribe_new_block(0, [&](const rpc::NewBlockFrame& f) {
    frames.push_back(f);
  });
  // 200 txs x 100 KB of events ≈ 20 MB > 16 MB.
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 200; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs), 100'000);
  sched.run_until(sim::seconds(10));
  ASSERT_EQ(frames.size(), 1u);
  // Paper §V: "Failed to collect events" — header arrives, events do not.
  EXPECT_FALSE(frames[0].events_ok);
  EXPECT_TRUE(frames[0].events().empty());
  EXPECT_EQ(server->frames_dropped_oversize(), 1u);
}

TEST_F(RpcFixture, UnsubscribeStopsFrames) {
  int count = 0;
  const auto id = server->subscribe_new_block(
      0, [&](const rpc::NewBlockFrame&) { ++count; });
  commit_block({make_tx(0)});
  sched.run_until(sim::seconds(2));
  EXPECT_EQ(count, 1);
  server->unsubscribe(id);
  commit_block({make_tx(1)});
  sched.run_until(sim::seconds(4));
  EXPECT_EQ(count, 1);
}

// Responses and frames are views of the ledger's shared block records: they
// must outlive the ledger growing (its vectors reallocate many times over
// 20 commits) and still read exactly what was committed.
TEST_F(RpcFixture, ResponsesAndFramesOutliveLaterCommits) {
  std::optional<rpc::NewBlockFrame> frame;
  server->subscribe_new_block(0, [&](const rpc::NewBlockFrame& f) {
    if (!frame) frame = f;
  });
  const chain::Tx tx = make_tx(1, 3);
  commit_block({make_tx(0), tx, make_tx(2)});
  std::optional<rpc::TxResponse> response;
  server->query_tx(0, tx.hash(), [&](util::Result<rpc::TxResponse> res) {
    ASSERT_TRUE(res.is_ok());
    response = res.value();
  });
  sched.run_until(sched.now() + sim::seconds(2));
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(response.has_value());
  const std::vector<chain::Event> frame_events = copy_events(frame->events());
  const std::vector<chain::Event> tx_events = response->result().events;
  ASSERT_EQ(frame_events.size(), 3u);

  for (int i = 0; i < 20; ++i) {
    std::vector<chain::Tx> txs;
    for (int j = 0; j < 5; ++j) txs.push_back(make_tx(100 + 5 * i + j));
    commit_block(std::move(txs));
  }
  sched.run_until(sched.now() + sim::seconds(2));
  ASSERT_EQ(ledger.height(), 21);

  EXPECT_EQ(response->height, 1);
  EXPECT_EQ(response->index, 1u);
  EXPECT_EQ(response->hash(), tx.hash());
  EXPECT_EQ(response->tx().encode(), tx.encode());
  EXPECT_TRUE(same_events(response->result().events, tx_events));
  EXPECT_TRUE(same_events(response->result().events,
                          (*ledger.results_at(1))[1].events));
  EXPECT_EQ(frame->height, 1);
  EXPECT_EQ(frame->tx_count, 3u);
  EXPECT_TRUE(same_events(copy_events(frame->events()), frame_events));
}

// The tamper hook edits a copy: an untampered re-query and the ledger still
// read the committed events.
TEST_F(RpcFixture, TamperedPageLeavesCommittedEventsIntact) {
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 4; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs));
  const std::vector<chain::Event> committed = (*ledger.results_at(1))[0].events;

  bool tamper = true;
  server->set_query_tamper([&tamper](rpc::TxSearchPage& page) {
    if (!tamper) return util::Status::ok();
    for (rpc::TxResponse& tx : page.txs) {
      for (chain::Event& ev : tx.mutable_result().events) {
        for (auto& [key, value] : ev.attributes) value = "tampered";
      }
    }
    return util::Status::ok();
  });
  std::vector<rpc::TxSearchPage> pages;
  auto query = [&] {
    server->query_packet_events(0, 1, "send_packet", 1, 4,
                                [&](util::Result<rpc::TxSearchPage> res) {
                                  ASSERT_TRUE(res.is_ok());
                                  pages.push_back(res.value());
                                });
    sched.run_until(sched.now() + sim::seconds(30));
  };
  query();
  tamper = false;
  query();
  ASSERT_EQ(pages.size(), 2u);
  ASSERT_EQ(pages[0].txs.size(), 4u);
  ASSERT_EQ(pages[1].txs.size(), 4u);

  const chain::Event& edited = pages[0].txs[0].result().events[0];
  EXPECT_EQ(edited.attribute("packet_sequence"), "tampered");
  EXPECT_TRUE(same_events(pages[1].txs[0].result().events, committed));
  EXPECT_TRUE(same_events((*ledger.results_at(1))[0].events, committed));
  EXPECT_EQ((*ledger.results_at(1))[0].events[0].attribute("packet_sequence"),
            "1");
}

// A QueryCache hit serves the page the miss returned, entry for entry, and
// both share the ledger's record rather than holding copies.
TEST_F(RpcFixture, QueryCacheHitPageEqualsMissPage) {
  std::vector<chain::Tx> txs;
  for (int i = 0; i < 6; ++i) txs.push_back(make_tx(i, 2));
  commit_block(std::move(txs));
  relayer::QueryCache cache(sched, relayer::QueryCacheConfig{true});

  std::vector<rpc::TxSearchPage> pages;
  for (int i = 0; i < 2; ++i) {
    cache.query_packet_events(*server, 0, 1, "send_packet", 2, 5,
                              [&](util::Result<rpc::TxSearchPage> res) {
                                ASSERT_TRUE(res.is_ok());
                                pages.push_back(res.value());
                              });
    sched.run_until(sched.now() + sim::seconds(30));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_EQ(pages.size(), 2u);
  const rpc::TxSearchPage& miss = pages[0];
  const rpc::TxSearchPage& hit = pages[1];
  EXPECT_EQ(hit.total_count, miss.total_count);
  ASSERT_EQ(miss.txs.size(), 4u);
  ASSERT_EQ(hit.txs.size(), miss.txs.size());
  for (std::size_t i = 0; i < miss.txs.size(); ++i) {
    EXPECT_EQ(hit.txs[i].height, miss.txs[i].height);
    EXPECT_EQ(hit.txs[i].index, miss.txs[i].index);
    EXPECT_EQ(hit.txs[i].hash(), miss.txs[i].hash());
    EXPECT_EQ(hit.txs[i].tx().encode(), miss.txs[i].tx().encode());
    EXPECT_TRUE(same_events(hit.txs[i].result().events,
                            miss.txs[i].result().events));
    EXPECT_EQ(hit.txs[i].block, ledger.committed(1));
  }
}

TEST_F(RpcFixture, RemoteClientPaysNetworkLatency) {
  commit_block({make_tx(0)});
  sim::TimePoint local_done = 0, remote_done = 0;
  const sim::TimePoint t0 = sched.now();
  server->status(0, [&](rpc::Server::StatusInfo) { local_done = sched.now(); });
  sched.run_until(sched.now() + sim::seconds(5));
  const sim::TimePoint t1 = sched.now();
  server->status(1, [&](rpc::Server::StatusInfo) { remote_done = sched.now(); });
  sched.run_until(sched.now() + sim::seconds(5));
  const sim::Duration local_rtt = local_done - t0;
  const sim::Duration remote_rtt = remote_done - t1;
  EXPECT_GT(remote_rtt, local_rtt + sim::millis(150));
}

}  // namespace
