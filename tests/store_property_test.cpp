// Model-based property tests: the journaled KvStore against a reference
// std::map model under random operation sequences, including nested
// begin/commit/revert cycles and write-set closes, plus root-consistency
// invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "chain/store.hpp"
#include "util/rng.hpp"

namespace {

std::string random_key(util::Rng& rng) {
  return "k/" + std::to_string(rng.next_below(40));
}

util::Bytes random_value(util::Rng& rng) {
  // Straddle the store's 32-byte inline-value threshold: small values hit
  // the inline path, the tail of this range exercises spill storage.
  util::Bytes v(1 + rng.next_below(48));
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(256));
  return v;
}

/// scan_prefix must agree with the model exactly: same keys (sorted), same
/// value bytes, and get_view must serve the same bytes as get.
void expect_scan_matches_model(const chain::KvStore& store,
                               const std::map<std::string, util::Bytes>& model,
                               const std::string& prefix, int step) {
  std::vector<std::pair<std::string, util::Bytes>> expected;
  for (const auto& [k, v] : model) {
    if (k.compare(0, prefix.size(), prefix) == 0) expected.emplace_back(k, v);
  }
  std::size_t i = 0;
  for (auto it = store.scan_prefix(prefix); it.next(); ++i) {
    ASSERT_LT(i, expected.size()) << "step " << step << " extra key "
                                  << it.key();
    EXPECT_EQ(it.key(), expected[i].first) << "step " << step;
    EXPECT_TRUE(std::equal(it.value().begin(), it.value().end(),
                           expected[i].second.begin(),
                           expected[i].second.end()))
        << "step " << step << " key " << it.key();
    const auto view = store.get_view(expected[i].first);
    ASSERT_TRUE(view.has_value()) << "step " << step;
    EXPECT_TRUE(std::equal(view->begin(), view->end(),
                           expected[i].second.begin(),
                           expected[i].second.end()))
        << "step " << step;
  }
  EXPECT_EQ(i, expected.size()) << "step " << step << " prefix " << prefix;
}

void expect_matches_model(const chain::KvStore& store,
                          const std::map<std::string, util::Bytes>& model,
                          int step) {
  ASSERT_EQ(store.size(), model.size()) << "step " << step;
  for (const auto& [k, v] : model) {
    const auto got = store.get(k);
    ASSERT_TRUE(got.has_value()) << "step " << step << " key " << k;
    EXPECT_EQ(*got, v) << "step " << step << " key " << k;
  }
}

using Model = std::map<std::string, util::Bytes>;
/// key -> (value at the older close, value at the newer), nullopt = absent.
using Diff = std::map<std::string, std::pair<std::optional<util::Bytes>,
                                             std::optional<util::Bytes>>>;

Diff model_diff(const Model& before, const Model& after) {
  Diff d;
  for (const auto& [k, v] : before) {
    const auto it = after.find(k);
    if (it == after.end()) {
      d[k] = {v, std::nullopt};
    } else if (it->second != v) {
      d[k] = {v, it->second};
    }
  }
  for (const auto& [k, v] : after) {
    if (!before.contains(k)) d[k] = {std::nullopt, v};
  }
  return d;
}

Diff write_set_diff(const chain::KvStore& store, int step) {
  const auto copy = [](const std::optional<util::BytesView>& v) {
    return v ? std::optional<util::Bytes>(util::Bytes(v->begin(), v->end()))
             : std::nullopt;
  };
  Diff d;
  const chain::KvStore::WriteSet& ws = store.write_set();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const chain::KvStore::Write w = ws[i];
    EXPECT_TRUE(
        d.emplace(std::string(w.key), std::pair(copy(w.before), copy(w.after)))
            .second)
        << "step " << step << " key " << w.key << " listed twice";
  }
  return d;
}

/// Sets then erases a few thousand "c/" keys (keeping every 1000th), enough
/// dead entries to force a store compaction in the middle of the interval.
void churn_burst(chain::KvStore& store, Model& model, util::Rng& rng) {
  constexpr int kKeys = 5'000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = "c/" + std::to_string(i);
    util::Bytes v = random_value(rng);
    store.set(k, v);
    model[k] = std::move(v);
  }
  for (int i = 0; i < kKeys; ++i) {
    if (i % 1'000 == 0) continue;
    const std::string k = "c/" + std::to_string(i);
    store.erase(k);
    model.erase(k);
  }
}

class StoreModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(StoreModelProperty, RandomOpsMatchReferenceModel) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  chain::KvStore store;
  std::map<std::string, util::Bytes> model;

  // Roots must be a pure function of contents: track roots seen per
  // content-snapshot via a canonical serialization.
  auto snapshot = [&]() {
    std::string s;
    for (const auto& [k, v] : model) {
      s += k + '=' + util::to_hex(v) + ';';
    }
    return s;
  };
  std::map<std::string, crypto::Digest> roots_by_content;

  bool in_tx = false;
  std::map<std::string, util::Bytes> model_backup;
  // Write-set bookkeeping: the model at the last close, and the diff that
  // close published (it must stay readable, unchanged, until the next).
  int closes = 0;
  Model model_at_close;
  Diff published;

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.40) {
      const std::string k = random_key(rng);
      const util::Bytes v = random_value(rng);
      store.set(k, v);
      model[k] = v;
    } else if (dice < 0.58) {
      const std::string k = random_key(rng);
      store.erase(k);
      model.erase(k);
    } else if (dice < 0.66 && !in_tx) {
      store.begin_tx();
      model_backup = model;
      in_tx = true;
    } else if (dice < 0.74 && in_tx) {
      store.commit_tx();
      in_tx = false;
    } else if (dice < 0.82 && in_tx) {
      store.revert_tx();
      model = model_backup;
      in_tx = false;
    } else if (dice < 0.90 && !in_tx) {
      // A block commit: the write-set is the diff since the previous one.
      store.close_write_set();
      if (++closes == 1) {
        EXPECT_FALSE(store.write_set().complete());
        EXPECT_EQ(store.write_set().size(), 0u);
      } else {
        ASSERT_TRUE(store.write_set().complete());
        published = write_set_diff(store, step);
        EXPECT_EQ(published, model_diff(model_at_close, model))
            << "step " << step;
      }
      model_at_close = model;
    } else if (dice < 0.91) {
      churn_burst(store, model, rng);
    } else if (dice < 0.94) {
      // Proof spot check on a random key (present or absent).
      const std::string k = random_key(rng);
      const chain::StoreProof proof = store.prove(k);
      EXPECT_EQ(proof.exists, model.contains(k)) << "step " << step;
      EXPECT_TRUE(chain::verify_store_proof(proof, store.root()));
    } else {
      expect_scan_matches_model(store, model, "k/", step);
      expect_scan_matches_model(store, model,
                                "k/" + std::to_string(rng.next_below(4)),
                                step);
    }

    expect_matches_model(store, model, step);
    if (closes > 1) {
      EXPECT_EQ(write_set_diff(store, step), published) << "step " << step;
    }

    // Root is deterministic in contents (order-independent set hash).
    const std::string snap = snapshot();
    const auto it = roots_by_content.find(snap);
    if (it != roots_by_content.end()) {
      EXPECT_EQ(it->second, store.root()) << "root drifted at step " << step;
    } else {
      roots_by_content.emplace(snap, store.root());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Heavy erase/reinsert churn pushes the store through tombstone purges and
// full compactions (threshold: thousands of dead entries); contents, scans,
// proofs and the root must stay consistent with the model throughout.
TEST(StorePropertyTest, CompactionChurnKeepsModelAndRoot) {
  util::Rng rng(4242);
  chain::KvStore store;
  std::map<std::string, util::Bytes> model;

  crypto::Digest root_when_empty = store.root();
  for (int round = 0; round < 6; ++round) {
    // Fill a few thousand keys, then erase most of them.
    for (int i = 0; i < 3'000; ++i) {
      const std::string k =
          "churn/" + std::to_string(round % 2) + "/" + std::to_string(i);
      util::Bytes v = random_value(rng);
      store.set(k, v);
      model[k] = std::move(v);
    }
    for (int i = 0; i < 3'000; ++i) {
      if (rng.next_below(8) == 0) continue;  // keep ~1/8 alive
      const std::string k =
          "churn/" + std::to_string(round % 2) + "/" + std::to_string(i);
      store.erase(k);
      model.erase(k);
    }
    ASSERT_EQ(store.size(), model.size()) << "round " << round;
    expect_scan_matches_model(store, model, "churn/", round);
    // Spot-check membership + proofs after the churn.
    for (int i = 0; i < 50; ++i) {
      const std::string k = "churn/" + std::to_string(round % 2) + "/" +
                            std::to_string(rng.next_below(3'000));
      const auto got = store.get(k);
      ASSERT_EQ(got.has_value(), model.contains(k)) << "round " << round;
      const chain::StoreProof proof = store.prove(k);
      EXPECT_EQ(proof.exists, model.contains(k));
      EXPECT_TRUE(chain::verify_store_proof(proof, store.root()));
    }
  }

  // Erasing everything must return the root to the empty-set hash: the
  // XOR set-hash (and thus compaction bookkeeping) leaks nothing.
  for (const auto& [k, v] : model) store.erase(k);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.root(), root_when_empty);
}

// The write-set cases one at a time: overwrite, create, erase, erase then
// re-create, a reverted tx and a write back to the committed value.
TEST(StorePropertyTest, WriteSetIsTheDiffBetweenCommits) {
  chain::KvStore store;
  store.set("kept", util::to_bytes("1"));
  store.set("gone", util::to_bytes("2"));
  store.set("back", util::to_bytes("3"));
  store.set("same", util::to_bytes("4"));
  store.close_write_set();  // genesis: nothing to diff against
  EXPECT_FALSE(store.write_set().complete());

  store.set("kept", util::to_bytes("10"));
  store.set("new", util::to_bytes("5"));
  store.erase("gone");
  store.erase("back");
  store.set("back", util::to_bytes("30"));
  store.set("same", util::to_bytes("4"));
  store.begin_tx();
  store.set("reverted", util::to_bytes("6"));
  store.erase("kept");
  store.revert_tx();
  store.set("temp", util::to_bytes("7"));
  store.erase("temp");
  store.close_write_set();

  const Diff expected = {
      {"back", {util::to_bytes("3"), util::to_bytes("30")}},
      {"gone", {util::to_bytes("2"), std::nullopt}},
      {"kept", {util::to_bytes("1"), util::to_bytes("10")}},
      {"new", {std::nullopt, util::to_bytes("5")}},
  };
  ASSERT_TRUE(store.write_set().complete());
  EXPECT_EQ(write_set_diff(store, 0), expected);
  // Reading does not consume; writes after the close do not leak in.
  store.set("kept", util::to_bytes("11"));
  EXPECT_EQ(write_set_diff(store, 0), expected);
  store.close_write_set();
  EXPECT_EQ(write_set_diff(store, 0),
            (Diff{{"kept", {util::to_bytes("10"), util::to_bytes("11")}}}));
  store.close_write_set();
  EXPECT_EQ(store.write_set().size(), 0u);
}

// Journal semantics across erase-heavy transactions: revert must restore
// exact pre-tx contents and root even when the tx erased spilled values.
TEST(StorePropertyTest, RevertRestoresSpilledValues) {
  chain::KvStore store;
  util::Bytes big(100, 0x5a);
  store.set("a", big);
  store.set("b", util::to_bytes("small"));
  const crypto::Digest root_before = store.root();

  store.begin_tx();
  store.erase("a");
  store.set("b", util::Bytes(64, 0x11));
  store.set("c", util::Bytes(33, 0x22));
  store.revert_tx();

  EXPECT_EQ(store.root(), root_before);
  const auto a = store.get("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, big);
  const auto b = store.get_view("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(util::Bytes(b->begin(), b->end()), util::to_bytes("small"));
  EXPECT_FALSE(store.contains("c"));
}

TEST(StorePropertyTest, PrefixScanMatchesModel) {
  util::Rng rng(99);
  chain::KvStore store;
  std::map<std::string, util::Bytes> model;
  for (int i = 0; i < 200; ++i) {
    const std::string k = "p" + std::to_string(rng.next_below(4)) + "/" +
                          std::to_string(rng.next_below(50));
    store.set(k, {});
    model[k] = {};
  }
  for (int p = 0; p < 4; ++p) {
    const std::string prefix = "p" + std::to_string(p) + "/";
    const auto keys = store.keys_with_prefix(prefix);
    std::vector<std::string> expected;
    for (const auto& [k, v] : model) {
      if (k.compare(0, prefix.size(), prefix) == 0) expected.push_back(k);
    }
    EXPECT_EQ(keys, expected);
  }
}

}  // namespace
