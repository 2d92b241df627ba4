// Observability subsystem: the null-tracer no-op guarantee, metric
// registry basics, the spans/events a real PID-throttled migration
// emits, supervisor attempt spans under fault injection, and the two
// exporters — including byte-for-byte golden stability of the Chrome
// trace JSON and metrics CSV across identical fixed-seed runs.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>

#include "src/common/units.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/csv_export.h"
#include "src/obs/events.h"
#include "src/obs/metric_registry.h"
#include "src/obs/trace.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fault_injector.h"
#include "src/slacker/metrics.h"
#include "src/slacker/migration_supervisor.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker {
namespace {

// ------------------------------------------------------------------
// A minimal JSON validator — enough to prove the exporter emits
// syntactically well-formed output without an external parser.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------------
// No-op guarantee: instrumentation against a null or disabled tracer
// records nothing and spans report inactive.

TEST(TracerTest, NullTracerSpanIsInert) {
  obs::TraceSpan span(nullptr, "track", "name");
  EXPECT_FALSE(span.active());
  span.AddArg("bytes", 1.0);
  span.AddNote("status", "OK");
  span.End();  // Must not crash.
}

TEST(TracerTest, DefaultConstructedSpanIsInert) {
  obs::TraceSpan span;
  EXPECT_FALSE(span.active());
  span.End();
}

// The null tracer is the one off switch: emitters handed it return
// before building an event.
TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::ThrottleUpdate update;
  update.tenant_id = 1;
  update.rate_mbps = 10.0;
  obs::EmitThrottleUpdate(nullptr, update);  // Must not crash.
  // Handed a tracer, the same call records.
  obs::Tracer tracer([] { return 0.0; });
  obs::EmitThrottleUpdate(&tracer, update);
  EXPECT_FALSE(tracer.events().empty());
}

TEST(TracerTest, EnabledTracerRecordsSpanWithTimesAndArgs) {
  double now = 1.0;
  obs::Tracer tracer([&now] { return now; });
  {
    obs::TraceSpan span(&tracer, "track", "phase", "cat");
    EXPECT_TRUE(span.active());
    span.AddArg("bytes", 42.0);
    span.AddNote("status", "OK");
    now = 3.5;
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  const obs::SpanRecord& record = tracer.spans()[0];
  EXPECT_EQ(record.track, "track");
  EXPECT_EQ(record.name, "phase");
  EXPECT_EQ(record.category, "cat");
  EXPECT_DOUBLE_EQ(record.begin, 1.0);
  EXPECT_DOUBLE_EQ(record.end, 3.5);
  ASSERT_EQ(record.args.size(), 1u);
  EXPECT_EQ(record.args[0].first, "bytes");
  ASSERT_EQ(record.notes.size(), 1u);
  EXPECT_EQ(record.notes[0].second, "OK");
}

TEST(TracerTest, MoveAssignmentClosesPreviousSpan) {
  double now = 0.0;
  obs::Tracer tracer([&now] { return now; });
  obs::TraceSpan span(&tracer, "t", "first");
  now = 1.0;
  span = obs::TraceSpan(&tracer, "t", "second");
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].name, "first");
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end, 1.0);
  span.End();
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].name, "second");
}

// ------------------------------------------------------------------
// Metric registry.

TEST(MetricRegistryTest, FindOrCreateDedupesByFullName) {
  obs::MetricRegistry registry;
  obs::Counter* a = registry.FindOrCreateCounter("ops", "tenant=1");
  obs::Counter* b = registry.FindOrCreateCounter("ops", "tenant=1");
  obs::Counter* c = registry.FindOrCreateCounter("ops", "tenant=2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Add(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricRegistryDeathTest, NameRegisteredAsAnotherKindIsFatal) {
  obs::MetricRegistry registry;
  registry.FindOrCreateGauge("x");
  registry.FindOrCreateCounter("ops", "tenant=1");
  EXPECT_DEATH(registry.FindOrCreateCounter("x"), "x is already registered");
  EXPECT_DEATH(registry.FindOrCreateHistogram("x"),
               "x is already registered");
  EXPECT_DEATH(registry.FindOrCreateGauge("ops", "tenant=1"),
               "ops\\{tenant=1\\} is already registered");
  EXPECT_EQ(registry.FindOrCreateGauge("x"), registry.FindOrCreateGauge("x"));
}

TEST(MetricRegistryTest, SampleSeriesAppendsCountersAndGauges) {
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.FindOrCreateCounter("bytes");
  obs::Gauge* gauge = registry.FindOrCreateGauge("rate");
  counter->Add(10);
  gauge->Set(2.5);
  registry.SampleSeries(1.0);
  counter->Add(5);
  registry.SampleSeries(2.0);
  const auto entries = registry.Entries();
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_NE(entries[0].series, nullptr);
  ASSERT_EQ(entries[0].series->points.size(), 2u);
  EXPECT_DOUBLE_EQ(entries[0].series->points[1].second, 15.0);
  EXPECT_DOUBLE_EQ(entries[1].series->points[0].second, 2.5);
}

TEST(MetricRegistryTest, HistogramPercentilesAreBucketUpperEdges) {
  obs::MetricRegistry registry;
  obs::Histogram* hist = registry.FindOrCreateHistogram("lat");
  for (int i = 1; i <= 100; ++i) hist->Observe(static_cast<double>(i));
  EXPECT_EQ(hist->count(), 100u);
  EXPECT_DOUBLE_EQ(hist->Mean(), 50.5);
  EXPECT_GE(hist->Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(hist->max(), 100.0);
}

// ------------------------------------------------------------------
// End-to-end: a real PID-throttled migration on a live cluster.

engine::TenantConfig SmallTenant(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 64 * 1024;  // 64 MiB of 1 KiB rows.
  config.buffer_pool_bytes = 8 * kMiB;
  return config;
}

// Everything a traced scenario needs, torn down in the right order.
struct TracedRig {
  sim::Simulator sim;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<workload::YcsbWorkload> workload;
  std::unique_ptr<workload::ClientPool> pool;

  explicit TracedRig(uint64_t seed) {
    tracer = std::make_unique<obs::Tracer>([this] { return sim.Now(); });
    ClusterOptions cluster_options;
    cluster_options.num_servers = 2;
    cluster = std::make_unique<Cluster>(&sim, cluster_options);
    cluster->InstallTracer(tracer.get());
    cluster->set_sla_threshold_ms(2000.0);
    EXPECT_TRUE(cluster->AddTenant(0, SmallTenant()).ok());
    workload::YcsbConfig ycsb;
    ycsb.record_count = 64 * 1024;
    // Light enough that latency can sit near the PID setpoint while
    // the migration stream makes progress.
    ycsb.mean_interarrival = 0.25;
    workload = std::make_unique<workload::YcsbWorkload>(ycsb, 1, seed);
    pool = std::make_unique<workload::ClientPool>(
        &sim, workload.get(), cluster.get(), cluster->MakeLatencyObserver());
    cluster->AttachClientPool(1, pool.get());
    pool->Start();
    sim.RunUntil(2.0);
  }

  ~TracedRig() {
    pool->Stop();
    cluster->InstallTracer(nullptr);
  }

  MigrationReport MigratePid() {
    MigrationOptions migration;
    migration.throttle = ThrottleKind::kPid;
    migration.pid.setpoint = 1000.0;
    migration.pid.output_max = 30.0;
    migration.prepare.base_seconds = 0.5;
    MigrationReport report;
    bool done = false;
    EXPECT_TRUE(cluster
                    ->StartMigration(1, 1, migration,
                                     [&](const MigrationReport& r) {
                                       report = r;
                                       done = true;
                                     })
                    .ok());
    while (!done && sim.Now() < 600.0) sim.RunUntil(sim.Now() + 1.0);
    EXPECT_TRUE(done);
    return report;
  }
};

TEST(MigrationTracingTest, PidMigrationEmitsPhaseSpansAndThrottleInstants) {
  TracedRig rig(/*seed=*/7);
  const MigrationReport report = rig.MigratePid();
  EXPECT_TRUE(report.status.ok());

  std::set<std::string> span_names;
  for (const obs::SpanRecord& span : rig.tracer->spans()) {
    if (span.track == obs::MigrationTrack(1)) span_names.insert(span.name);
    EXPECT_GE(span.end, span.begin);
  }
  for (const char* phase :
       {"negotiate", "snapshot", "prepare", "delta", "handover", "freeze"}) {
    EXPECT_TRUE(span_names.count(phase)) << "missing span: " << phase;
  }

  // Throttle instants carry the regulated rate and the PID terms.
  size_t throttle_instants = 0, with_pid_terms = 0;
  for (const obs::Event& event : rig.tracer->events()) {
    if (event.kind != obs::EventKind::kInstant || event.name != "throttle") {
      continue;
    }
    ++throttle_instants;
    bool has_rate = false, has_p = false, has_i = false, has_d = false;
    for (const auto& [key, value] : event.args) {
      has_rate |= key == "rate_mbps";
      has_p |= key == "p";
      has_i |= key == "i";
      has_d |= key == "d";
    }
    EXPECT_TRUE(has_rate);
    if (has_p && has_i && has_d) ++with_pid_terms;
  }
  EXPECT_GT(throttle_instants, 0u);
  EXPECT_GT(with_pid_terms, 0u);

  // Phase transitions arrived in protocol order on the migration track.
  std::vector<std::string> transitions;
  for (const obs::Event& event : rig.tracer->events()) {
    if (event.track == obs::MigrationTrack(1) &&
        event.name.rfind("phase:", 0) == 0) {
      transitions.push_back(event.name);
    }
  }
  ASSERT_GE(transitions.size(), 5u);
  EXPECT_EQ(transitions.front(), "phase:snapshot");
  EXPECT_EQ(transitions.back(), "phase:done");

  // The registry saw migration byte counters.
  uint64_t snapshot_bytes = 0;
  for (const auto& entry : rig.tracer->registry()->Entries()) {
    if (entry.full_name == "migration_snapshot_bytes{tenant=1}") {
      snapshot_bytes = entry.counter->value();
    }
  }
  EXPECT_EQ(snapshot_bytes, report.snapshot_bytes);
}

TEST(MigrationTracingTest, CollectorPublishesSeriesAndToStringShowsPhase) {
  TracedRig rig(/*seed=*/9);
  sim::PeriodicTimer sampler(&rig.sim, /*period=*/1.0, [&](SimTime) {
    PublishMetrics(rig.cluster.get(), rig.tracer->registry());
  });
  sampler.Start();

  // Catch the migration mid-flight to see the phase in the top view.
  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 8.0;
  migration.prepare.base_seconds = 0.5;
  bool done = false;
  ASSERT_TRUE(rig.cluster
                  ->StartMigration(1, 1, migration,
                                   [&](const MigrationReport&) { done = true; })
                  .ok());
  rig.sim.RunUntil(rig.sim.Now() + 3.0);
  const std::string top = CollectMetrics(rig.cluster.get()).ToString();
  EXPECT_NE(top.find("[migrating]"), std::string::npos) << top;
  EXPECT_NE(top.find("MB/s"), std::string::npos) << top;
  while (!done && rig.sim.Now() < 300.0) rig.sim.RunUntil(rig.sim.Now() + 1.0);
  ASSERT_TRUE(done);
  sampler.Stop();

  const std::string csv = obs::ToCsv(*rig.tracer->registry());
  EXPECT_NE(csv.find("time_s,metric,value"), std::string::npos);
  EXPECT_NE(csv.find("disk_util{server=0}"), std::string::npos);
  EXPECT_NE(csv.find("window_latency_ms{server=0}"), std::string::npos);
  EXPECT_NE(csv.find("active_migrations"), std::string::npos);
}

// ------------------------------------------------------------------
// Supervisor attempts under fault injection.

TEST(SupervisorTracingTest, CrashDuringSnapshotEmitsAttemptSpansAndFaults) {
  TracedRig rig(/*seed=*/21);

  FaultPlan plan;
  plan.CrashAtPhase(/*server_id=*/1, /*watch_tenant=*/1,
                    MigrationPhase::kSnapshot, /*restart_after=*/5.0,
                    /*phase_delay=*/2.0);
  FaultInjector injector(rig.cluster.get(), plan);
  injector.Arm();

  MigrationOptions migration;
  migration.throttle = ThrottleKind::kFixed;
  migration.fixed_rate_mbps = 16.0;
  migration.prepare.base_seconds = 0.5;
  migration.timeout_seconds = 10.0;
  SupervisorOptions sup;
  sup.initial_backoff = 1.0;
  sup.max_attempts = 5;
  MigrationReport report;
  bool done = false;
  MigrationSupervisor supervisor(rig.cluster.get(), 1, 1, migration, sup,
                                 [&](const MigrationReport& r) {
                                   report = r;
                                   done = true;
                                 });
  ASSERT_TRUE(supervisor.Start().ok());
  while (!done && rig.sim.Now() < 600.0) rig.sim.RunUntil(rig.sim.Now() + 1.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GE(report.attempts.size(), 2u);

  size_t attempt_spans = 0;
  for (const obs::SpanRecord& span : rig.tracer->spans()) {
    if (span.track == obs::SupervisorTrack(1) &&
        span.name.rfind("attempt", 0) == 0) {
      ++attempt_spans;
    }
  }
  EXPECT_GE(attempt_spans, 2u);

  std::set<std::string> fault_names;
  size_t retries = 0;
  for (const obs::Event& event : rig.tracer->events()) {
    if (event.track == obs::FaultTrack()) fault_names.insert(event.name);
    if (event.track == obs::SupervisorTrack(1) && event.name == "retry") {
      ++retries;
    }
  }
  EXPECT_TRUE(fault_names.count("fault:crash"));
  EXPECT_TRUE(fault_names.count("fault:restart"));
  EXPECT_GE(retries, 1u);
}

// ------------------------------------------------------------------
// Exporters: validity and byte-for-byte determinism.

std::string RunGoldenScenario(std::string* csv_out) {
  TracedRig rig(/*seed=*/13);
  sim::PeriodicTimer sampler(&rig.sim, /*period=*/1.0, [&](SimTime) {
    PublishMetrics(rig.cluster.get(), rig.tracer->registry());
  });
  sampler.Start();
  const MigrationReport report = rig.MigratePid();
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  sampler.Stop();
  if (csv_out != nullptr) *csv_out = obs::ToCsv(*rig.tracer->registry());
  return obs::ToChromeTraceJson(*rig.tracer);
}

TEST(ExporterTest, ChromeTraceIsValidJsonWithExpectedShape) {
  std::string csv;
  const std::string json = RunGoldenScenario(&csv);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Validate()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // Spans.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // Instants.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // Track names.
  EXPECT_NE(json.find("tenant 1 migration"), std::string::npos);
  EXPECT_NE(csv.find("time_s,metric,value"), std::string::npos);
}

TEST(ExporterTest, GoldenOutputsAreByteStableAcrossIdenticalRuns) {
  std::string csv_a, csv_b;
  const std::string json_a = RunGoldenScenario(&csv_a);
  const std::string json_b = RunGoldenScenario(&csv_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(csv_a, csv_b);
  EXPECT_GT(json_a.size(), 1000u);
  EXPECT_GT(csv_a.size(), 100u);
}

TEST(ExporterTest, EscapesControlAndQuoteCharacters) {
  obs::Tracer tracer([] { return 1.0; });
  {
    obs::TraceSpan span(&tracer, "track \"q\"", "na\nme");
    span.AddNote("status", "tab\there");
  }
  const std::string json = obs::ToChromeTraceJson(tracer);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Validate()) << json;
  EXPECT_NE(json.find("\\\"q\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
}

}  // namespace
}  // namespace slacker
