#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace parcm {
namespace {

// Installs `r` as the global registry for the lifetime of the guard so a
// test observes only its own metrics.
struct RegistryGuard {
  explicit RegistryGuard(obs::Registry& r) : prev(obs::set_registry(&r)) {}
  ~RegistryGuard() { obs::set_registry(prev); }
  obs::Registry* prev;
};

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\n", 2)), "\\u0001\\n");
}

TEST(JsonWriter, Numbers) {
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(-0.25), "-0.25");
  // JSON has no representation for non-finite values.
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(INFINITY), "null");
}

TEST(JsonWriter, CompactDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("s").value("x\"y");
  w.key("i").value(-3);
  w.key("u").value(std::uint64_t{18446744073709551615ull});
  w.key("b").value(true);
  w.key("d").value(0.5);
  w.key("n").null();
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"x\\\"y\",\"i\":-3,\"u\":18446744073709551615,"
            "\"b\":true,\"d\":0.5,\"n\":null,\"arr\":[1,2],\"obj\":{}}");
}

TEST(JsonWriter, PrettyDocument) {
  obs::JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Registry, CounterSemantics) {
  obs::Registry r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.counter("missing"), 0u);
  r.add_counter("hits");           // default delta 1
  r.add_counter("hits", 4);
  EXPECT_EQ(r.counter("hits"), 5u);
  EXPECT_FALSE(r.empty());
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(Registry, ZeroDeltaListsTheCounter) {
  // A zero-delta add still creates the entry, as the name-keyed map did;
  // merge_from carries it over.
  obs::Registry r;
  r.add_counter("obs.test.zero", 0);
  EXPECT_EQ(r.counters(),
            (std::map<std::string, std::uint64_t>{{"obs.test.zero", 0}}));
  EXPECT_FALSE(r.empty());
  obs::Registry merged;
  merged.merge_from(r);
  EXPECT_EQ(merged.counters(), r.counters());
}

TEST(Registry, CounterKeysShareOneSlotPerName) {
  const obs::CounterKey& key = obs::counter_key<"obs.test.keyed">();
  EXPECT_EQ(obs::intern_counter("obs.test.keyed").slot, key.slot);
  EXPECT_EQ(*key.name, "obs.test.keyed");
  obs::Registry r;
  r.add_counter(key, 2);
  r.add_counter("obs.test.keyed", 3);
  EXPECT_EQ(r.counter("obs.test.keyed"), 5u);
}

TEST(Registry, CounterDeltasAreSortedByName) {
  obs::Registry r;
  r.add_counter("obs.test.delta.b", 1);
  r.add_counter("obs.test.delta.c", 1);
  std::vector<std::uint64_t> before;
  r.counter_values(&before);
  // Moved, untouched, added with a zero delta, and new since the snapshot.
  r.add_counter("obs.test.delta.c", 4);
  r.add_counter("obs.test.delta.b", 0);
  r.add_counter("obs.test.delta.z", 0);
  r.add_counter("obs.test.delta.a", 7);
  obs::CounterDeltas deltas;
  r.counter_deltas(before, &deltas);
  EXPECT_EQ(deltas, (obs::CounterDeltas{{"obs.test.delta.a", 7},
                                        {"obs.test.delta.c", 4}}));
}

TEST(Registry, GaugeLastWriteWins) {
  obs::Registry r;
  r.set_gauge("blowup", 2.0);
  r.set_gauge("blowup", 3.5);
  EXPECT_EQ(r.gauges().at("blowup"), 3.5);
}

TEST(Registry, TimerAccumulates) {
  obs::Registry r;
  r.add_timer_ns("solve", 1'000'000);
  r.add_timer_ns("solve", 500'000);
  obs::TimerStat t = r.timers().at("solve");
  EXPECT_EQ(t.count, 2u);
  EXPECT_EQ(t.total_ns, 1'500'000u);
  EXPECT_DOUBLE_EQ(t.total_ms(), 1.5);
}

TEST(Registry, SnapshotsAreSortedByName) {
  obs::Registry r;
  r.add_counter("zeta");
  r.add_counter("alpha");
  r.add_counter("midway");
  std::vector<std::string> names;
  for (const auto& [k, v] : r.counters()) names.push_back(k);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "midway", "zeta"}));
}

TEST(Registry, JsonIsStableOrdered) {
  obs::Registry r;
  r.add_counter("b", 2);
  r.add_counter("a", 1);
  r.set_gauge("g", 0.5);
  r.add_timer_ns("t", 2'000'000);
  EXPECT_EQ(r.to_json(),
            "{\"schema\":\"parcm-metrics-v1\","
            "\"counters\":{\"a\":1,\"b\":2},\"gauges\":{\"g\":0.5},"
            "\"timers\":{\"t\":{\"count\":1,\"total_ms\":2}},"
            "\"histograms\":{}}");
  // Identical content must serialize identically (machine diffing).
  obs::Registry r2;
  r2.set_gauge("g", 0.5);
  r2.add_timer_ns("t", 2'000'000);
  r2.add_counter("a", 1);
  r2.add_counter("b", 2);
  EXPECT_EQ(r.to_json(), r2.to_json());
}

TEST(Histogram, BucketOfIsLog2) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(Histogram, SummaryStatistics) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  for (std::uint64_t v : {100u, 200u, 300u, 400u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 400u);
  EXPECT_DOUBLE_EQ(h.mean(), 250.0);
  // Percentiles are clamped to the observed range and monotone in p.
  EXPECT_EQ(h.percentile(0.0), 100.0);
  EXPECT_EQ(h.percentile(100.0), 400.0);
  double p50 = h.p50(), p90 = h.p90(), p99 = h.p99();
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 400.0);
}

TEST(Histogram, MergeIsExact) {
  // A histogram merged from shards must equal the histogram of the
  // concatenated samples — this is what makes per-worker aggregation
  // lossless in the batch driver.
  obs::Histogram a, b, whole;
  for (std::uint64_t v = 0; v < 500; ++v) {
    (v % 2 ? a : b).record(v * 37);
    whole.record(v * 37);
  }
  a.merge_from(b);
  EXPECT_EQ(a, whole);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.p99(), whole.p99());
}

TEST(Histogram, EmptyPercentilesAreZero) {
  obs::Histogram h;
  for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 0.0) << p;
  }
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, BucketSaturationAtUint64Max) {
  // The top bucket (index 64) absorbs the largest representable values;
  // sums may wrap but percentiles stay clamped to the observed max.
  obs::Histogram h;
  const std::uint64_t top = ~std::uint64_t{0};
  h.record(top);
  h.record(top - 1);
  h.record(1);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.buckets()[64], 2u);
  EXPECT_EQ(h.max(), top);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.percentile(100.0), static_cast<double>(top));
  EXPECT_LE(h.p99(), static_cast<double>(top));
  EXPECT_GE(h.p99(), 1.0);
}

TEST(Histogram, DisjointShardsMergeExactly) {
  // Shards whose value ranges do not overlap at all (distinct buckets):
  // the merge must still equal the histogram of the concatenation.
  obs::Histogram lo, hi, whole;
  for (std::uint64_t v = 1; v <= 64; ++v) {
    lo.record(v);
    whole.record(v);
  }
  for (std::uint64_t v = 1 << 20; v < (1 << 20) + 64; ++v) {
    hi.record(v);
    whole.record(v);
  }
  lo.merge_from(hi);
  EXPECT_EQ(lo, whole);
  EXPECT_EQ(lo.min(), 1u);
  EXPECT_EQ(lo.max(), (1u << 20) + 63);
  EXPECT_DOUBLE_EQ(lo.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(lo.p99(), whole.p99());
  // Merging an empty shard is the identity.
  obs::Histogram empty;
  obs::Histogram copy = lo;
  copy.merge_from(empty);
  EXPECT_EQ(copy, lo);
}

TEST(Histogram, FromSerializedRoundTripsBucketsAndStats) {
  obs::Histogram h;
  for (std::uint64_t v : {0u, 1u, 7u, 4096u, 70000u}) h.record(v);
  std::vector<std::pair<std::size_t, std::uint64_t>> sparse;
  for (std::size_t b = 0; b < obs::Histogram::kNumBuckets; ++b) {
    if (h.buckets()[b] != 0) sparse.emplace_back(b, h.buckets()[b]);
  }
  obs::Histogram back =
      obs::Histogram::from_serialized(sparse, h.sum(), h.min(), h.max());
  EXPECT_EQ(back, h);

  // Degenerate inputs: no buckets -> a pristine empty histogram (stats are
  // ignored); out-of-range bucket indices are dropped, not UB.
  obs::Histogram empty = obs::Histogram::from_serialized({}, 99, 1, 98);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min(), 0u);
  obs::Histogram bogus =
      obs::Histogram::from_serialized({{1000, 5}, {2, 1}}, 3, 3, 3);
  EXPECT_EQ(bogus.count(), 1u);
}

TEST(Registry, HistogramRecordAndSnapshot) {
  obs::Registry r;
  r.record_hist("lat", 10);
  r.record_hist("lat", 1000);
  EXPECT_EQ(r.histogram("lat").count(), 2u);
  EXPECT_EQ(r.histogram("missing").count(), 0u);
  EXPECT_EQ(r.histograms().size(), 1u);
  EXPECT_FALSE(r.empty());
  std::string json = r.to_json();
  EXPECT_NE(json.find("\"histograms\":{\"lat\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(r.to_string().find("lat"), std::string::npos);
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(Registry, MergeSumsHistograms) {
  obs::Registry a, b;
  a.record_hist("h", 8);
  b.record_hist("h", 16);
  b.record_hist("other", 1);
  a.merge_from(b);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").sum(), 24u);
  EXPECT_EQ(a.histogram("other").count(), 1u);
}

TEST(Registry, ToStringListsEveryMetric) {
  obs::Registry r;
  r.add_counter("dfa.relaxations", 12);
  r.set_gauge("blowup", 1.5);
  r.add_timer_ns("solve", 3'000'000);
  std::string s = r.to_string();
  EXPECT_NE(s.find("dfa.relaxations"), std::string::npos);
  EXPECT_NE(s.find("12"), std::string::npos);
  EXPECT_NE(s.find("blowup"), std::string::npos);
  EXPECT_NE(s.find("solve"), std::string::npos);
  EXPECT_EQ(obs::Registry().to_string(), "(no metrics recorded)\n");
}

TEST(Registry, ConcurrentCountersStayConsistent) {
  obs::Registry r;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < 1000; ++i) r.add_counter("shared");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(r.counter("shared"), 4000u);
}

TEST(Registry, GlobalInjection) {
  obs::Registry mine;
  {
    RegistryGuard guard(mine);
    obs::registry().add_counter("seen");
    EXPECT_EQ(mine.counter("seen"), 1u);
  }
  // Restored: further reports no longer land in `mine`.
  obs::registry().add_counter("obs.test.after_restore");
  EXPECT_EQ(mine.counter("obs.test.after_restore"), 0u);
}

#if PARCM_OBS_ENABLED
TEST(Macros, ReportIntoInstalledRegistry) {
  obs::Registry mine;
  RegistryGuard guard(mine);
  PARCM_OBS_COUNT("macro.count", 2);
  PARCM_OBS_COUNT("macro.count", 3);
  PARCM_OBS_GAUGE("macro.gauge", 7.5);
  {
    PARCM_OBS_TIMER("macro.timer");
  }
  EXPECT_EQ(mine.counter("macro.count"), 5u);
  EXPECT_EQ(mine.gauges().at("macro.gauge"), 7.5);
  EXPECT_EQ(mine.timers().at("macro.timer").count, 1u);
}

TEST(Trace, ScopedTimersRecordNestedSpans) {
  obs::Registry mine;
  RegistryGuard guard(mine);
  obs::trace().set_enabled(true);
  obs::trace().clear();
  {
    PARCM_OBS_TIMER("outer");
    { PARCM_OBS_TIMER("inner"); }
    { PARCM_OBS_TIMER("inner"); }
  }
  obs::trace().set_enabled(false);
  // Spans are stored in pre-order (begin order) with their nesting depth.
  const auto& spans = obs::trace().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_GE(spans[0].dur_ns, spans[1].dur_ns);

  std::string tree = obs::trace().tree();
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("  inner"), std::string::npos);

  std::string json = obs::trace().chrome_json(/*pretty=*/false);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  obs::trace().clear();
}
#endif  // PARCM_OBS_ENABLED

TEST(Trace, DisabledGlobalSinkIsNotFed) {
  // Timers gate on trace().enabled() before ever calling begin().
  obs::trace().set_enabled(false);
  obs::trace().clear();
  EXPECT_EQ(obs::detail::trace_begin("ignored"), -1);
  obs::detail::trace_end(-1);
  EXPECT_TRUE(obs::trace().spans().empty());
  EXPECT_NE(obs::trace().chrome_json().find("\"traceEvents\""),
            std::string::npos);
}

TEST(Trace, ExplicitSinkSpans) {
  obs::TraceSink sink;
  sink.set_enabled(true);
  int a = sink.begin("a");
  int b = sink.begin("b");
  sink.end(b);
  sink.end(a);
  ASSERT_EQ(sink.spans().size(), 2u);
  EXPECT_EQ(sink.spans()[0].name, "a");
  EXPECT_EQ(sink.spans()[1].name, "b");
  EXPECT_LE(sink.spans()[0].start_ns, sink.spans()[1].start_ns);
  EXPECT_GE(sink.spans()[0].dur_ns, sink.spans()[1].dur_ns);
  sink.clear();
  EXPECT_TRUE(sink.spans().empty());
}

TEST(Trace, BufferOverflowDropsAndCounts) {
  // A span buffer that fills up must reject further spans (handle -1),
  // count every rejection, and keep the spans it already holds intact —
  // the wraparound contract of the fixed-capacity ring.
  obs::TraceSink sink;
  sink.set_span_capacity(4);
  sink.set_enabled(true);
  for (int i = 0; i < 4; ++i) {
    int s = sink.begin("kept-" + std::to_string(i));
    ASSERT_GE(s, 0) << i;
    sink.end(s);
  }
  for (int i = 0; i < 10; ++i) {
    int s = sink.begin("dropped");
    EXPECT_EQ(s, -1) << i;
    sink.end(s);  // ending a rejected span must be harmless
  }
  EXPECT_EQ(sink.spans().size(), 4u);
  EXPECT_EQ(sink.dropped(), 10u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.spans()[i].name, "kept-" + std::to_string(i));
  }
  // clear() resets the ring and the drop counter: capacity is available
  // again.
  sink.clear();
  EXPECT_EQ(sink.dropped(), 0u);
  int s = sink.begin("after-clear");
  EXPECT_GE(s, 0);
  sink.end(s);
  ASSERT_EQ(sink.spans().size(), 1u);
  EXPECT_EQ(sink.spans()[0].name, "after-clear");
}

}  // namespace
}  // namespace parcm
