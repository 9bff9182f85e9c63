//===- perfbench/kvbench.cpp - kv::store workload benchmark ------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measured program behind `perfbench/run.py`. One invocation builds
/// and prefills a `kv::store<hyaline_s, ...>`, drives one named workload
/// from three closed-loop client threads for a fixed wall time, collects
/// the raw material for every output check, and prints one JSON record
/// on stdout. run.py evaluates the checks and prints the result line.
///
/// Thread layout (sized for a 4-core host): clients use scheme thread
/// ids 0-2, the stalled peer of `ingest-stalled` sleeps on id 3, and the
/// coordinating main thread (window clock, probe scans, post-run
/// checks) uses id 4.
///
/// Timed run (`--trace 0`): the measured time is split into equal
/// windows. Every `Stride`-th op of each client is timed with two clock
/// reads; throughput is successful ops over a window's wall time. Each
/// metric is the median of its per-window values.
///
/// Traced run (`--trace 1`): untraced and traced windows interleave in
/// the order ABBAABBA, so a throughput trend over the run cancels out of
/// their ratio. In a traced window every client runs a probe round every
/// `ProbeEvery` ops: one batch of calls into each layer's public
/// functions, timed per batch (a clock read costs about as much as a
/// guard enter/leave, so single calls cannot be timed). The throughput
/// ratio of the two window kinds is the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include <lfsmr/kv.h>
#include <lfsmr/kv_async.h>
#include <lfsmr/schemes.h>

#include "support/json.h"
#include "support/random.h"
#include "support/workload.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace {

using Scheme = lfsmr::schemes::hyaline_s;
using lfsmr::thread_id;
using lfsmr::Xoshiro256;
using lfsmr::workload::ZipfianGenerator;

constexpr unsigned Clients = 3;
constexpr thread_id StallTid = Clients;
constexpr thread_id CoordTid = Clients + 1;

/// Every Stride-th client op is timed in the timed run.
constexpr std::uint64_t Stride = 4;
/// A traced-window client runs one probe round every ProbeEvery ops.
constexpr std::uint64_t ProbeEvery = 1024;
constexpr unsigned ProbeBatch = 32;
constexpr unsigned TxnProbeBatch = ProbeBatch / 4; // 4 keys per probe txn
constexpr unsigned AsyncProbeBatch = 16;
/// Keys whose chains are inspected after the run.
constexpr unsigned ChainSamples = 1024;
constexpr unsigned BurstGets = 16;

// txn-async shape.
constexpr std::uint64_t Accounts = 4096;
constexpr std::uint64_t AccountBase = std::uint64_t{1} << 30;
constexpr std::uint64_t InitialBalance = 1'000'000;
constexpr unsigned AsyncRun = 16;     // async writes between transfers
constexpr std::size_t AsyncWindow = 64;
constexpr std::uint64_t AuditEveryNs = 50'000'000;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t streamSeed(std::uint64_t Seed, std::uint64_t Stream) {
  lfsmr::SplitMix64 Mix(Seed ^ (0x9e3779b97f4a7c15ULL * (Stream + 1)));
  return Mix.next();
}

/// Keeps probe results alive so the timed calls are not optimized away.
std::atomic<std::uint64_t> Sink{0};

/// u64 keys and values. A value carries its key in the high 32 bits, so
/// every read can be checked against the key it was issued for. Keys
/// stay below 2^32: workload keys from 0, accounts at AccountBase,
/// never-written probe keys at 2^31.
struct U64Model {
  using K = std::uint64_t;
  using V = std::uint64_t;
  static void key(std::uint64_t Id, K &Out) { Out = Id; }
  static void absentKey(std::uint64_t I, K &Out) {
    Out = (std::uint64_t{1} << 31) + I;
  }
  static void value(const K &Key, std::uint64_t Tag, bool, V &Out) {
    Out = (Key << 32) | (Tag & 0xffffffffu);
  }
  static bool valid(const K &Key, const V &Val) { return (Val >> 32) == Key; }
  static void corrupt(V &Val) { Val ^= std::uint64_t{1} << 63; }
};

/// String keys ("k" + 7 digits) and 16 or 512 byte values: the key, a
/// '|', then one tag letter repeated to the value's size. A read of the
/// wrong key, a torn value, or a wrong size fails `valid`.
struct StringModel {
  using K = std::string;
  using V = std::string;
  static constexpr std::size_t Small = 16;
  static constexpr std::size_t Large = 512;
  static void digits(char Lead, std::uint64_t Id, std::string &Out) {
    Out.assign(8, '0');
    Out[0] = Lead;
    for (int I = 7; I >= 1; --I, Id /= 10)
      Out[I] = static_cast<char>('0' + Id % 10);
  }
  static void key(std::uint64_t Id, K &Out) { digits('k', Id, Out); }
  static void absentKey(std::uint64_t I, K &Out) { digits('m', I, Out); }
  static void value(const K &Key, std::uint64_t Tag, bool Big, V &Out) {
    Out.assign(Big ? Large : Small, static_cast<char>('a' + Tag % 26));
    Out.replace(0, Key.size(), Key);
    Out[Key.size()] = '|';
  }
  static bool valid(std::string_view Key, std::string_view Val) {
    if (Val.size() != Small && Val.size() != Large)
      return false;
    if (Val.substr(0, Key.size()) != Key || Val[Key.size()] != '|')
      return false;
    const char Tag = Val[Key.size() + 1];
    if (Tag < 'a' || Tag > 'z')
      return false;
    return Val.find_first_not_of(Tag, Key.size() + 1) == std::string_view::npos;
  }
  static void corrupt(V &Val) { Val.back() ^= 1; }
};

/// A workload. Its key domain is sized so that prefilling each key with
/// the mix's steady-state live share (puts / (puts + erases)) leaves
/// `Keys` keys live on average: the store starts where the mix keeps it,
/// instead of drifting through the measured windows.
struct Spec {
  const char *Name;
  std::uint64_t Keys;       ///< expected prefilled (live) keys
  unsigned GetPct;          ///< share of gets (sync clients)
  unsigned PutPct;          ///< share of puts; the rest are erases
  unsigned LargePct;        ///< share of 512 B string values
  std::uint64_t BurstEvery; ///< every Nth op is a snapshot burst (0: none)
  bool Stalled;             ///< a peer holds a guard for the whole run
  bool Async;               ///< the txn-async client loop
  bool Strings;             ///< string keys and values (else u64)
  unsigned Setups;          ///< set-ups per run; setup_s is their median

  unsigned erasePct() const { return 100 - GetPct - PutPct; }
  std::uint64_t domain() const { return Keys * (PutPct + erasePct()) / PutPct; }
};

const Spec Specs[] = {
    {"serve-read", 1u << 18, 90, 8, 10, 256, false, false, true, 5},
    {"ingest-write", 1u << 16, 20, 50, 0, 0, false, false, false, 9},
    {"ingest-stalled", 1u << 16, 20, 50, 0, 0, true, false, false, 9},
    {"txn-async", 1u << 16, 0, 80, 0, 0, false, true, false, 9},
};

struct Args {
  const Spec *Workload = nullptr;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool InjectCorruptRead = false;
};

/// Latency classes a client times.
enum Cls : unsigned { Get, Put, Burst, Transfer, Async, TxnGet, NumCls };

/// Layer calls a traced client times, one batch per probe round.
enum Layer : unsigned {
  EnterLeave,
  CreateRetire,
  Hash,
  FindMiss,
  StoreGet,
  StorePut,
  Tick,
  MinLive,
  OpenClose,
  Commit,
  Enqueue,
  Wait,
  NumLayer
};

/// Latency histogram: exact below 128 ns, then 128 linear sub-buckets
/// per power of two (0.8% wide). Fixed size: recording never allocates,
/// so the samples neither touch the store's heap nor grow the RSS.
class Histogram {
public:
  void add(std::uint64_t Ns) {
    ++Count[index(std::min<std::uint64_t>(Ns, UINT32_MAX))];
    ++N;
  }
  void merge(const Histogram &O) {
    for (unsigned I = 0; I < Buckets; ++I)
      Count[I] += O.Count[I];
    N += O.N;
  }
  std::uint64_t size() const { return N; }

  /// Mean of the samples ranked in a narrow band around quantile \p Q
  /// ([Q-0.5%, Q+0.5%] for the median, [Q-0.1%, Q+0.1%] for tails), each
  /// bucket's samples spread evenly over its width: steadier than one
  /// order statistic, and not quantized to bucket bounds.
  double bandQuantile(double Q) const {
    if (N == 0)
      return NAN;
    const double Half = Q < 0.9 ? 0.005 : 0.001;
    const double Total = static_cast<double>(N);
    const double Lo = std::max(0.0, (Q - Half) * Total);
    const double Hi = std::min(Total, (Q + Half) * Total);
    double Sum = 0, Cum = 0;
    for (unsigned I = 0; I < Buckets && Cum < Hi; ++I) {
      const double C = Count[I];
      const double A = std::max(Lo, Cum), B = std::min(Hi, Cum + C);
      if (B > A)
        Sum += (B - A) * (lower(I) + width(I) * ((A + B) / 2 - Cum) / C);
      Cum += C;
    }
    return Sum / (Hi - Lo);
  }

private:
  static constexpr unsigned SubBits = 7;
  static constexpr unsigned Sub = 1u << SubBits;
  static constexpr unsigned Buckets = Sub + (32 - SubBits) * Sub;

  static unsigned index(std::uint64_t V) {
    if (V < Sub)
      return static_cast<unsigned>(V);
    const unsigned E = 63 - static_cast<unsigned>(__builtin_clzll(V));
    return Sub + (E - SubBits) * Sub +
           static_cast<unsigned>((V >> (E - SubBits)) - Sub);
  }
  static double lower(unsigned I) {
    if (I < Sub)
      return I;
    const unsigned Shift = (I - Sub) / Sub;
    return static_cast<double>(std::uint64_t{(I - Sub) % Sub + Sub} << Shift);
  }
  static double width(unsigned I) {
    return I < Sub ? 1.0
                   : static_cast<double>(std::uint64_t{1} << ((I - Sub) / Sub));
  }

  std::array<std::uint32_t, Buckets> Count{};
  std::uint64_t N = 0;
};

struct WindowRec {
  std::uint64_t Ops = 0;
  std::array<Histogram, NumCls> Lat;
};

struct ClientRec {
  std::vector<WindowRec> Win;
  /// Nanoseconds per call, one value per probe batch.
  std::array<std::vector<double>, NumLayer> Layers;
  std::uint64_t Attempted = 0; ///< ops started inside a measured window
  std::uint64_t BadReads = 0;
  std::uint64_t Errors = 0;
  std::string Error;
  std::uint64_t Submitted = 0;
  std::uint64_t Completed = 0;
  std::uint64_t TxnAttempts = 0;
  std::uint64_t TxnAborts = 0;
  std::uint64_t Audits = 0;
  std::uint64_t AuditFailures = 0;
  std::uint64_t Opens = 0; ///< snapshots opened, transactions included
};

struct Phases {
  int Windows = 0;
  bool Trace = false;
  /// -1 warm-up, [0, Windows) measured, Windows: stop.
  std::atomic<int> Cur{-1};
  /// Traced windows are 1, 2, 5, 6 of 8 (ABBAABBA).
  bool traced(int W) const { return Trace && W >= 0 && (W + 1) / 2 % 2 == 1; }
};

/// Per-thread client state: its op stream and the window its current op
/// belongs to.
struct Client {
  Client(unsigned Id, Phases &Ph, ClientRec &Rec, std::uint64_t Seed)
      : Id(Id), Ph(Ph), Rec(Rec), Rng(streamSeed(Seed, Id)) {}

  unsigned Id;
  Phases &Ph;
  ClientRec &Rec;
  Xoshiro256 Rng;
  std::uint64_t Seq = 0;
  int W = -1;
  bool Sampled = false;

  thread_id tid() const { return Id; }
  bool measured() const { return W >= 0 && W < Ph.Windows; }

  /// Starts the next op; false once the run is over.
  bool next() {
    W = Ph.Cur.load(std::memory_order_relaxed);
    if (W >= Ph.Windows)
      return false;
    ++Seq;
    Sampled = !Ph.Trace && W >= 0 && Seq % Stride == 0;
    if (W >= 0)
      ++Rec.Attempted;
    return true;
  }
  bool probeDue() const { return Ph.traced(W) && Seq % ProbeEvery == 0; }
  std::uint64_t start(bool Timed) const { return Timed ? nowNs() : 0; }
  std::uint64_t start() const { return start(Sampled); }
  std::uint64_t tag() const { return Seq * Clients + Id; }

  void record(Cls C, std::uint64_t T0) {
    if (T0 == 0 || !measured())
      return;
    Rec.Win[W].Lat[C].add(nowNs() - T0);
  }
  void succeeded() {
    if (measured())
      ++Rec.Win[W].Ops;
  }
};

double median(std::vector<double> V) {
  V.erase(std::remove_if(V.begin(), V.end(),
                         [](double X) { return std::isnan(X); }),
          V.end());
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

using lfsmr::json::Writer;

void metric(Writer &J, const char *Name, double V, const char *Unit) {
  J.key(Name).beginObject().key("value").value(V).key("unit").value(Unit);
  J.endObject();
}

/// Object the size of a u64 store version (stamp, older link, commit
/// link, tombstone flag, value): what `smr.create_retire_ns` allocates.
struct VersionSized {
  std::uint64_t Words[5];
};

template <typename M> class Run {
  using K = typename M::K;
  using V = typename M::V;
  using DB = lfsmr::kv::store<Scheme, K, V>;
  using Sub = lfsmr::kv::submitter<Scheme, K, V>;
  using Fut = lfsmr::kv::future<Scheme, K, V>;
  static constexpr bool IsU64 = std::is_same_v<K, std::uint64_t>;

public:
  Run(const Spec &S, const Args &A)
      : S(S), A(A), Zipf(S.domain()), AccountZipf(Accounts), TickReg(8),
        Recs(Clients) {
    Ph.Trace = A.Trace;
    Ph.Windows = A.Trace ? 8 : 9;
    for (ClientRec &R : Recs)
      R.Win.resize(Ph.Windows);
  }

  int run() {
    std::vector<double> SetupSecs;
    for (unsigned I = 0; I < S.Setups; ++I) {
      Db.reset();
      // Coalesce the dropped store's small free chunks (malloc_trim
      // consolidates the fastbins), so each set-up allocates in address
      // order, as from a fresh heap. Popping them in LIFO order scattered
      // the new store's nodes and made set-up time swing by up to 2x.
      malloc_trim(0);
      const std::uint64_t T0 = nowNs();
      Db = std::make_unique<DB>();
      prefill(*Db);
      SetupSecs.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    }
    if (S.Async || A.Trace)
      Submit = std::make_unique<Sub>(*Db);
    std::unique_ptr<lfsmr::workload::StalledSnapshotHolder<DB>> Stall;
    if (S.Stalled) {
      Stall = std::make_unique<lfsmr::workload::StalledSnapshotHolder<DB>>(
          *Db, StallTid);
      Stall->waitUntilHeld();
      Stall->releaseSnapshot(); // only the guard stays stalled
    }

    const lfsmr::telemetry::store_stats Before = Db->stats();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([this, C] { clientMain(C); });
    std::vector<double> WinSecs;
    try {
      WinSecs = coordinate();
    } catch (...) {
      Ph.Cur.store(Ph.Windows);
      for (std::thread &T : Threads)
        T.join();
      throw;
    }
    for (std::thread &T : Threads)
      T.join();
    const lfsmr::telemetry::store_stats After = Db->stats();
    rusage Ru{};
    getrusage(RUSAGE_SELF, &Ru);
    const double RssMiB = static_cast<double>(Ru.ru_maxrss) / 1024.0;

    // Quiesce: drain async rings, release the stalled peer, trim.
    if (Submit)
      Submit->flush(CoordTid);
    const std::uint64_t StoreSubmits =
        Db->stats().async_submits - Before.async_submits;
    Submit.reset();
    Stall.reset();
    Db->compact(CoordTid);

    Writer J;
    J.beginObject();
    J.key("workload").value(S.Name);
    J.key("seed").value(A.Seed);
    J.key("seconds").value(A.Seconds);
    J.key("trace").value(A.Trace);
    J.key("setup_secs").beginArray();
    for (double Sec : SetupSecs)
      J.value(Sec);
    J.endArray();
    emitChecks(J, StoreSubmits);
    J.key("windows").beginArray();
    std::vector<double> OpsPerS(Ph.Windows);
    for (int W = 0; W < Ph.Windows; ++W) {
      std::uint64_t Ops = 0;
      for (const ClientRec &R : Recs)
        Ops += R.Win[W].Ops;
      OpsPerS[W] = static_cast<double>(Ops) / WinSecs[W];
      J.beginObject().key("secs").value(WinSecs[W]).key("ops").value(Ops);
      J.key("traced").value(Ph.traced(W)).endObject();
    }
    J.endArray();
    if (A.Trace)
      emitLayers(J, OpsPerS, Before, After);
    else
      emitTimed(J, OpsPerS, median(SetupSecs), RssMiB);
    J.endObject();
    std::printf("%s\n", J.str().c_str());
    return 0;
  }

private:
  void prefill(DB &D) {
    std::vector<std::thread> T;
    std::vector<std::exception_ptr> Err(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      T.emplace_back([&, C] {
        try {
          Xoshiro256 Rng(streamSeed(A.Seed, 100 + C));
          K Key;
          V Val;
          for (std::uint64_t Id = C; Id < S.domain(); Id += Clients) {
            if (Rng.nextBounded(S.PutPct + S.erasePct()) >= S.PutPct)
              continue;
            M::key(Id, Key);
            M::value(Key, Id, Rng.nextPercent(S.LargePct), Val);
            D.put(C, Key, Val);
          }
          if constexpr (IsU64)
            if (S.Async)
              for (std::uint64_t I = C; I < Accounts; I += Clients)
                D.put(C, AccountBase + I, InitialBalance);
        } catch (...) {
          Err[C] = std::current_exception();
        }
      });
    for (std::thread &Th : T)
      Th.join();
    for (std::exception_ptr &E : Err)
      if (E)
        std::rethrow_exception(E);
  }

  void clientMain(unsigned Id) {
    Client C(Id, Ph, Recs[Id], A.Seed);
    try {
      if constexpr (IsU64)
        if (S.Async)
          return asyncClient(C);
      syncClient(C);
    } catch (const std::exception &E) {
      C.Rec.Error = E.what();
    } catch (...) {
      C.Rec.Error = "unknown exception";
    }
    if (!C.Rec.Error.empty()) {
      ++C.Rec.Errors;
      Ph.Cur.store(Ph.Windows); // a failed client ends the run
    }
  }

  /// Window clock. Returns each measured window's wall seconds.
  std::vector<double> coordinate() {
    using namespace std::chrono;
    const double WinSecs = A.Seconds / Ph.Windows;
    // Warm-up: skips thread start and the first pass over cold caches.
    // It does not reach a plateau on the ingest workloads: there Hyaline-S
    // doubles its slot directory every several seconds (slots whose Ack
    // count reaches AckThreshold look stalled), and each doubling makes
    // batches larger and publishing slower, so throughput keeps falling.
    const auto Warm = duration<double>(std::min(2.0, A.Seconds / 5));
    std::this_thread::sleep_for(Warm);
    std::vector<std::uint64_t> Edge(Ph.Windows + 1);
    for (int W = 0; W < Ph.Windows; ++W) {
      Edge[W] = nowNs();
      Ph.Cur.store(W);
      const auto Deadline =
          steady_clock::now() +
          duration_cast<steady_clock::duration>(duration<double>(WinSecs));
      if (Ph.traced(W))
        probeScan();
      while (steady_clock::now() < Deadline &&
             Ph.Cur.load(std::memory_order_relaxed) == W) {
        if (A.Trace) {
          UnreclaimedPeak =
              std::max(UnreclaimedPeak, Db->stats().unreclaimed);
          std::this_thread::sleep_until(
              std::min(Deadline, steady_clock::now() + milliseconds(10)));
        } else {
          std::this_thread::sleep_until(
              std::min(Deadline, steady_clock::now() + milliseconds(100)));
        }
      }
      if (Ph.Cur.load() != W)
        break; // a client failed and ended the run
    }
    const std::uint64_t End = nowNs();
    for (std::uint64_t &E : Edge)
      if (E == 0)
        E = End;
    Ph.Cur.store(Ph.Windows);
    std::vector<double> Secs(Ph.Windows);
    for (int W = 0; W < Ph.Windows; ++W)
      Secs[W] = static_cast<double>(Edge[W + 1] - Edge[W]) * 1e-9;
    return Secs;
  }

  // -- Client loops ---------------------------------------------------------

  void syncClient(Client &C) {
    DB &D = *Db;
    K Key;
    V Val;
    std::optional<V> Got;
    bool Injected = !A.InjectCorruptRead || C.Id != 0;
    while (C.next()) {
      if (C.probeDue())
        probeRound(C);
      if (S.BurstEvery && C.Seq % S.BurstEvery == 0) {
        burst(C);
        continue;
      }
      const unsigned R = static_cast<unsigned>(C.Rng.nextBounded(100));
      M::key(Zipf.next(C.Rng), Key);
      if (R < S.GetPct) {
        const std::uint64_t T0 = C.start();
        Got = D.get(C.tid(), Key);
        C.record(Get, T0);
        if (!Injected && Got && C.measured()) {
          M::corrupt(*Got);
          Injected = true;
        }
        if (Got && !M::valid(Key, *Got)) {
          ++C.Rec.BadReads;
          continue;
        }
      } else if (R < S.GetPct + S.PutPct) {
        M::value(Key, C.tag(), C.Rng.nextPercent(S.LargePct), Val);
        const std::uint64_t T0 = C.start();
        D.put(C.tid(), Key, Val);
        C.record(Put, T0);
      } else {
        const std::uint64_t T0 = C.start();
        D.erase(C.tid(), Key);
        C.record(Put, T0);
      }
      C.succeeded();
    }
  }

  /// Snapshot burst: open, BurstGets snapshot gets, close.
  void burst(Client &C) {
    std::array<K, BurstGets> Keys;
    std::array<std::optional<V>, BurstGets> Got;
    for (K &Key : Keys)
      M::key(Zipf.next(C.Rng), Key);
    const std::uint64_t T0 = C.start();
    lfsmr::kv::snapshot Snap = Db->open_snapshot();
    for (unsigned I = 0; I < BurstGets; ++I)
      Got[I] = Db->get(C.tid(), Keys[I], Snap);
    Snap.reset();
    C.record(Burst, T0);
    ++C.Rec.Opens;
    for (unsigned I = 0; I < BurstGets; ++I)
      if (Got[I] && !M::valid(Keys[I], *Got[I])) {
        ++C.Rec.BadReads;
        return;
      }
    C.succeeded();
  }

  /// txn-async: runs of AsyncRun async writes with a closed window of
  /// AsyncWindow futures, each run followed by one transfer; client 0
  /// also audits the account total every AuditEveryNs.
  void asyncClient(Client &C) {
    struct InFlight {
      Fut F;
      std::uint64_t T0 = 0;
    };
    std::array<InFlight, AsyncWindow> Ring;
    std::size_t Head = 0, Live = 0;
    auto WaitOldest = [&] {
      InFlight &Slot = Ring[Head];
      Slot.F.get(C.tid());
      ++C.Rec.Completed;
      C.record(Async, Slot.T0);
      C.succeeded();
      Head = (Head + 1) % AsyncWindow;
      --Live;
    };
    std::uint64_t LastAudit = nowNs();
    K Key;
    V Val;
    bool Running = true;
    while (Running) {
      for (unsigned I = 0; I < AsyncRun; ++I) {
        if (!(Running = C.next()))
          break;
        if (C.probeDue())
          probeRound(C);
        if (Live == AsyncWindow)
          WaitOldest();
        InFlight &Slot = Ring[(Head + Live) % AsyncWindow];
        M::key(Zipf.next(C.Rng), Key);
        const bool IsPut = C.Rng.nextPercent(S.PutPct);
        if (IsPut)
          M::value(Key, C.tag(), false, Val);
        Slot.T0 = C.start();
        Slot.F = IsPut ? Submit->put(C.tid(), Key, Val)
                       : Submit->erase(C.tid(), Key);
        ++Live;
        ++C.Rec.Submitted;
      }
      if (!Running || !(Running = C.next()))
        break;
      transfer(C);
      if (C.Id == 0 && nowNs() - LastAudit >= AuditEveryNs) {
        ++C.Rec.Audits;
        if (!audit(C.tid()))
          ++C.Rec.AuditFailures;
        LastAudit = nowNs();
      }
    }
    while (Live)
      WaitOldest(); // past the last window: nothing is recorded
  }

  /// Moves two amounts between four distinct zipf-chosen accounts in one
  /// transaction, retrying on abort until it commits.
  void transfer(Client &C) {
    std::array<std::uint64_t, 4> Acc;
    for (unsigned N = 0; N < 4;) {
      const std::uint64_t A = AccountBase + AccountZipf.next(C.Rng);
      if (std::find(Acc.begin(), Acc.begin() + N, A) == Acc.begin() + N)
        Acc[N++] = A;
    }
    const std::uint64_t Amt1 = 1 + C.Rng.nextBounded(100);
    const std::uint64_t Amt2 = 1 + C.Rng.nextBounded(100);
    // Sampled transfers alternate between timing the whole transfer and
    // timing its four reads, so neither timing includes the other's
    // clock reads.
    const bool TimeReads = C.Sampled && (C.Seq / Stride) % 2 == 1;
    const std::uint64_t T0 = C.start(C.Sampled && !TimeReads);
    for (;;) {
      ++C.Rec.TxnAttempts;
      ++C.Rec.Opens;
      auto T = Db->begin_transaction();
      std::array<std::uint64_t, 4> Bal;
      for (unsigned I = 0; I < 4; ++I) {
        const std::uint64_t G0 = C.start(TimeReads);
        const std::optional<std::uint64_t> B = T.get(C.tid(), Acc[I]);
        C.record(TxnGet, G0);
        if (!B) {
          ++C.Rec.BadReads; // accounts are never erased
          T.abort();
          return;
        }
        Bal[I] = *B;
      }
      T.put(Acc[0], Bal[0] - Amt1);
      T.put(Acc[1], Bal[1] + Amt1);
      T.put(Acc[2], Bal[2] - Amt2);
      T.put(Acc[3], Bal[3] + Amt2);
      if (T.commit(C.tid()))
        break;
      ++C.Rec.TxnAborts;
    }
    C.record(Transfer, T0);
    C.succeeded();
  }

  /// Scans a fresh snapshot: the accounts must sum to the initial total
  /// and every other binding must carry its key.
  bool audit(thread_id Tid) {
    if constexpr (IsU64) {
      lfsmr::kv::snapshot Snap = Db->open_snapshot();
      std::uint64_t Sum = 0, N = 0, Bad = 0;
      Db->scan(Tid, Snap, [&](const std::uint64_t &Key, const std::uint64_t &Val) {
        if (Key >= AccountBase) {
          Sum += Val;
          ++N;
        } else if (!M::valid(Key, Val)) {
          ++Bad;
        }
      });
      return Sum == Accounts * InitialBalance && N == Accounts && Bad == 0;
    }
    return true;
  }

  // -- Traced run -----------------------------------------------------------

  /// One batch of calls into each layer's public functions, on keys of
  /// the workload's own distribution. Writes keep the value encoding, so
  /// every check still holds; txn-async probes never touch accounts.
  void probeRound(Client &C) {
    auto &L = C.Rec.Layers;
    DB &D = *Db;
    std::array<K, ProbeBatch> Keys, Miss;
    std::array<V, ProbeBatch> Vals;
    std::array<bool, ProbeBatch> IsPut;
    std::array<std::optional<V>, ProbeBatch> Got;
    const unsigned WritePct = 100 - S.GetPct;
    for (unsigned I = 0; I < ProbeBatch; ++I) {
      M::key(Zipf.next(C.Rng), Keys[I]);
      // Absent keys follow the same zipf ranks as present ones, so a
      // miss descends an index path as warm as a hit's.
      M::absentKey(Zipf.next(C.Rng), Miss[I]);
      M::value(Keys[I], C.tag() + I, C.Rng.nextPercent(S.LargePct), Vals[I]);
      IsPut[I] = C.Rng.nextBounded(WritePct) < S.PutPct;
    }
    auto Timed = [&](Layer Ly, unsigned N, auto &&Body) {
      const std::uint64_t T0 = nowNs();
      Body();
      L[Ly].push_back(static_cast<double>(nowNs() - T0) / N);
    };
    std::uint64_t Acc = 0;

    Timed(EnterLeave, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        auto G = D.domain().enter(C.tid());
    });
    {
      auto G = D.domain().enter(C.tid());
      Timed(CreateRetire, ProbeBatch, [&] {
        for (unsigned I = 0; I < ProbeBatch; ++I)
          G.retire(G.template create<VersionSized>());
      });
    }
    Timed(Hash, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        Acc += lfsmr::kv::Codec<K>::hash(Keys[I]);
    });
    Timed(FindMiss, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        Got[I] = D.get(C.tid(), Miss[I]);
    });
    for (unsigned I = 0; I < ProbeBatch; ++I)
      C.Rec.BadReads += Got[I].has_value();
    Timed(StoreGet, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        Got[I] = D.get(C.tid(), Keys[I]);
    });
    for (unsigned I = 0; I < ProbeBatch; ++I)
      C.Rec.BadReads += Got[I] && !M::valid(Keys[I], *Got[I]);
    Timed(StorePut, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        if (IsPut[I])
          D.put(C.tid(), Keys[I], Vals[I]);
        else
          D.erase(C.tid(), Keys[I]);
    });
    Timed(Tick, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        Acc += TickReg.tick();
    });
    Timed(MinLive, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I)
        Acc += D.registry().minLive();
    });
    Timed(OpenClose, ProbeBatch, [&] {
      for (unsigned I = 0; I < ProbeBatch; ++I) {
        lfsmr::kv::snapshot Snap = D.open_snapshot();
        Snap.reset();
      }
    });
    C.Rec.Opens += ProbeBatch;

    std::vector<lfsmr::kv::txn<Scheme, K, V>> Txns;
    for (unsigned T = 0; T < TxnProbeBatch; ++T) {
      Txns.push_back(D.begin_transaction());
      for (unsigned I = 4 * T; I < 4 * T + 4; ++I)
        Txns.back().put(Keys[I], Vals[I]);
    }
    C.Rec.Opens += TxnProbeBatch;
    Timed(Commit, TxnProbeBatch, [&] {
      for (auto &T : Txns)
        Acc += T.commit(C.tid());
    });

    std::array<Fut, AsyncProbeBatch> F;
    Timed(Enqueue, AsyncProbeBatch, [&] {
      for (unsigned I = 0; I < AsyncProbeBatch; ++I)
        F[I] = Submit->put(C.tid(), Keys[I], Vals[I]);
    });
    Timed(Wait, AsyncProbeBatch, [&] {
      for (unsigned I = 0; I < AsyncProbeBatch; ++I)
        Acc += F[I].get(C.tid());
    });
    C.Rec.Submitted += AsyncProbeBatch;
    C.Rec.Completed += AsyncProbeBatch;
    Sink.fetch_add(Acc, std::memory_order_relaxed);
  }

  /// One whole-store scan per traced window, from the coordinator.
  void probeScan() {
    lfsmr::kv::snapshot Snap = Db->open_snapshot();
    ++CoordOpens;
    std::uint64_t N = 0;
    const std::uint64_t T0 = nowNs();
    Db->scan(CoordTid, Snap, [&](const auto &, const auto &) { ++N; });
    ScanNsPerBinding.push_back(static_cast<double>(nowNs() - T0) /
                               static_cast<double>(std::max<std::uint64_t>(N, 1)));
  }

  // -- Output ---------------------------------------------------------------

  /// Raw material for run.py's checks, gathered at quiescence.
  void emitChecks(Writer &J, std::uint64_t StoreSubmits) {
    std::uint64_t BadReads = 0, Errors = 0, Submitted = 0, Completed = 0,
                  Audits = 0, AuditFailures = 0, Attempted = 0;
    std::string Error;
    for (const ClientRec &R : Recs) {
      BadReads += R.BadReads;
      Errors += R.Errors;
      Submitted += R.Submitted;
      Completed += R.Completed;
      Audits += R.Audits;
      AuditFailures += R.AuditFailures;
      Attempted += R.Attempted;
      if (Error.empty())
        Error = R.Error;
    }
    if (S.Async) {
      ++Audits; // the final audit, at quiescence
      AuditFailures += !audit(CoordTid);
    }

    // Chains of sampled keys: one version when the key is live, none
    // when compaction unlinked its tombstone.
    Xoshiro256 Rng(streamSeed(A.Seed, 1000));
    std::uint64_t ChainBad = 0;
    K Key;
    for (unsigned I = 0; I < ChainSamples; ++I) {
      M::key(Rng.nextBounded(S.domain()), Key);
      const std::size_t N = Db->version_count(CoordTid, Key);
      const std::optional<V> Got = Db->get(CoordTid, Key);
      if (Got ? (N != 1 || !M::valid(Key, *Got)) : N != 0)
        ++ChainBad;
    }
    std::uint64_t Bindings = 0;
    {
      lfsmr::kv::snapshot Snap = Db->open_snapshot();
      Db->scan(CoordTid, Snap, [&](const auto &, const auto &) { ++Bindings; });
    }
    const lfsmr::telemetry::store_stats St = Db->stats();

    J.key("attempted").value(Attempted);
    J.key("checks").beginObject();
    J.key("bad_reads").value(BadReads);
    J.key("errors").value(Errors).key("error").value(Error);
    J.key("async").beginObject();
    J.key("submitted").value(Submitted).key("completed").value(Completed);
    J.key("store_submits").value(StoreSubmits).endObject();
    J.key("audits").value(Audits).key("audit_failures").value(AuditFailures);
    J.key("chains").beginObject().key("sampled").value(ChainSamples);
    J.key("bad").value(ChainBad).endObject();
    J.key("ledger").beginObject();
    J.key("allocated").value(St.allocated).key("retired").value(St.retired);
    J.key("freed").value(St.freed);
    J.key("bindings").value(Bindings).key("dummies").value(Db->dummy_nodes());
    // Hyaline-S publishes a thread id's retired nodes once its batch
    // holds max(MinBatch, slots + 1); at quiescence every published batch
    // is freed, and only partial batches, one per thread id, remain.
    J.key("thread_ids").value(CoordTid + 1);
    J.key("batch").value(std::max<std::uint64_t>(
        Db->domain().configuration().MinBatch,
        Db->domain().scheme().slots() + 1));
    J.endObject();
    J.endObject();
  }

  /// Median over windows of one latency quantile, in microseconds, plus
  /// the sample count over all windows.
  std::pair<double, std::uint64_t> latency(Cls C, double Q) {
    std::vector<double> PerWin;
    std::uint64_t N = 0;
    for (int W = 0; W < Ph.Windows; ++W) {
      Histogram All;
      for (const ClientRec &R : Recs)
        All.merge(R.Win[W].Lat[C]);
      N += All.size();
      PerWin.push_back(All.bandQuantile(Q) / 1000.0);
    }
    return {median(PerWin), N};
  }

  void emitTimed(Writer &J, const std::vector<double> &OpsPerS, double SetupS,
                 double RssMiB) {
    const Cls Read = S.Async ? TxnGet : Get;
    const Cls Write = S.Async ? Async : Put;
    const auto R50 = latency(Read, 0.50), R98 = latency(Read, 0.98);
    const auto W50 = latency(Write, 0.50), W98 = latency(Write, 0.98);
    J.key("metrics").beginObject();
    metric(J, "ops_per_s", median(OpsPerS), "ops/s");
    metric(J, "read_p50_us", R50.first, "us");
    metric(J, "read_p98_us", R98.first, "us");
    metric(J, "write_p50_us", W50.first, "us");
    metric(J, "write_p98_us", W98.first, "us");
    metric(J, "rss_peak_mb", RssMiB, "MiB");
    metric(J, "setup_s", SetupS, "s");
    J.endObject();

    // The per-operation view, named after the client call.
    J.key("report").beginArray();
    auto Row = [&](const char *Name, std::pair<double, std::uint64_t> V,
                   const char *Unit) {
      J.beginObject().key("name").value(Name).key("value").value(V.first);
      J.key("unit").value(Unit).key("samples").value(V.second).endObject();
    };
    auto Pair = [&](const char *P50, const char *P99, Cls C) {
      Row(P50, latency(C, 0.50), "us");
      Row(P99, latency(C, 0.99), "us");
    };
    Row("ops_per_s", {median(OpsPerS), 0}, "ops/s");
    if (!S.Async) {
      Pair("get_p50_us", "get_p99_us", Get);
      Pair("put_p50_us", "put_p99_us", Put);
    }
    if (S.BurstEvery)
      Pair("snap_p50_us", "snap_p99_us", Burst);
    if (S.Async) {
      Pair("commit_p50_us", "commit_p99_us", Transfer);
      Pair("async_p50_us", "async_p99_us", Async);
      Pair("txn_get_p50_us", "txn_get_p99_us", TxnGet);
      std::uint64_t Att = 0, Ab = 0;
      for (const ClientRec &R : Recs)
        Att += R.TxnAttempts, Ab += R.TxnAborts;
      Row("abort_frac", {Att ? static_cast<double>(Ab) / Att : NAN, Att},
          "ratio");
    }
    Row("rss_peak_mb", {RssMiB, 0}, "MiB");
    Row("setup_s", {SetupS, S.Setups}, "s");
    J.endArray();
  }

  void emitLayers(Writer &J, const std::vector<double> &OpsPerS,
                  const lfsmr::telemetry::store_stats &B,
                  const lfsmr::telemetry::store_stats &E) {
    std::array<double, NumLayer> Ns;
    for (unsigned Ly = 0; Ly < NumLayer; ++Ly) {
      std::vector<double> All;
      for (const ClientRec &R : Recs)
        All.insert(All.end(), R.Layers[Ly].begin(), R.Layers[Ly].end());
      Ns[Ly] = median(std::move(All));
    }
    std::vector<double> Plain, Traced;
    for (int W = 0; W < Ph.Windows; ++W)
      (Ph.traced(W) ? Traced : Plain).push_back(OpsPerS[W]);
    std::uint64_t Opens = CoordOpens;
    for (const ClientRec &R : Recs)
      Opens += R.Opens;
    auto Ratio = [](double Num, double Den) { return Den ? Num / Den : NAN; };
    auto Delta = [](std::uint64_t A, std::uint64_t Bv) {
      return static_cast<double>(Bv - A);
    };
    // Mean of the samples a histogram gained over the run.
    auto DeltaMean = [](const lfsmr::telemetry::histogram_summary &A,
                        const lfsmr::telemetry::histogram_summary &Bh) {
      const double N = static_cast<double>(Bh.count - A.count);
      return N > 0 ? (Bh.mean * Bh.count - A.mean * A.count) / N : NAN;
    };
    const double FindMissNs = Ns[FindMiss] - Ns[EnterLeave];
    const double Submits = Delta(B.async_submits, E.async_submits);

    J.key("metrics").beginObject();
    metric(J, "smr.enter_leave_ns", Ns[EnterLeave], "ns");
    metric(J, "smr.create_retire_ns", Ns[CreateRetire], "ns");
    metric(J, "smr.unreclaimed_peak", static_cast<double>(UnreclaimedPeak),
           "nodes");
    metric(J, "smr.freed_per_retired",
           Ratio(static_cast<double>(E.freed - B.freed),
                 static_cast<double>(E.retired - B.retired)),
           "ratio");
    metric(J, "kv.codec.hash_ns", Ns[Hash], "ns");
    metric(J, "kv.index.find_miss_ns", FindMissNs, "ns");
    metric(J, "kv.index.resizes", static_cast<double>(E.index_resizes),
           "count");
    metric(J, "kv.store.get_ns", Ns[StoreGet], "ns");
    metric(J, "kv.store.chain_read_ns", Ns[StoreGet] - Ns[FindMiss], "ns");
    metric(J, "kv.store.put_ns", Ns[StorePut], "ns");
    metric(J, "kv.store.put_residual_ns",
           Ns[StorePut] - Ns[FindMiss] - Ns[CreateRetire] - Ns[Tick] -
               2 * Ns[MinLive],
           "ns");
    metric(J, "kv.store.trim_walk_len",
           DeltaMean(B.trim_walk_len, E.trim_walk_len), "nodes");
    metric(J, "kv.registry.tick_ns", Ns[Tick], "ns");
    metric(J, "kv.registry.minlive_ns", Ns[MinLive], "ns");
    metric(J, "kv.registry.open_close_ns", Ns[OpenClose], "ns");
    metric(J, "kv.registry.slow_acquire_frac",
           Ratio(Delta(B.slow_acquires, E.slow_acquires),
                 static_cast<double>(Opens)),
           "ratio");
    metric(J, "kv.txn.commit_ns", Ns[Commit], "ns");
    const double Commits = Delta(B.txn_commits, E.txn_commits);
    const double Aborts = Delta(B.txn_aborts, E.txn_aborts);
    metric(J, "kv.txn.abort_frac", Ratio(Aborts, Commits + Aborts), "ratio");
    metric(J, "kv.submit.enqueue_ns", Ns[Enqueue], "ns");
    metric(J, "kv.submit.wait_ns", Ns[Wait], "ns");
    metric(J, "kv.submit.batch_len",
           DeltaMean(B.submit_batch_len, E.submit_batch_len), "requests");
    metric(J, "kv.submit.sync_fallback_frac",
           Ratio(Delta(B.sync_fallbacks, E.sync_fallbacks), Submits), "ratio");
    metric(J, "kv.submit.takeovers_per_kop",
           Ratio(1000 * Delta(B.combiner_takeovers, E.combiner_takeovers),
                 Submits),
           "1/kop");
    metric(J, "kv.scan.ns_per_binding", median(ScanNsPerBinding), "ns");
    metric(J, "trace.overhead_frac", 1 - median(Traced) / median(Plain),
           "ratio");
    J.endObject();
  }

  const Spec &S;
  const Args &A;
  ZipfianGenerator Zipf;
  ZipfianGenerator AccountZipf;
  /// Standalone registry for `kv.registry.tick_ns`.
  lfsmr::kv::SnapshotRegistry TickReg;
  Phases Ph;
  std::vector<ClientRec> Recs;
  std::unique_ptr<DB> Db;
  std::unique_ptr<Sub> Submit; // destroyed before Db
  std::int64_t UnreclaimedPeak = 0;
  std::uint64_t CoordOpens = 0;
  std::vector<double> ScanNsPerBinding;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "kvbench: %s\nusage: kvbench --workload "
               "serve-read|ingest-write|ingest-stalled|txn-async --seed N "
               "--seconds S --trace 0|1 [--inject-corrupt-read]\n",
               Msg);
  std::exit(2);
}

Args parse(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string_view F = Argv[I];
    if (F == "--inject-corrupt-read") {
      A.InjectCorruptRead = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage("missing value");
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (F == "--workload") {
      for (const Spec &S : Specs)
        if (std::strcmp(S.Name, Val) == 0)
          A.Workload = &S;
      if (!A.Workload)
        usage("unknown workload");
    } else if (F == "--seed") {
      A.Seed = std::strtoull(Val, &End, 0);
    } else if (F == "--seconds") {
      A.Seconds = std::strtod(Val, &End);
      if (!(A.Seconds > 0 && A.Seconds <= 600))
        usage("--seconds must be in (0, 600]");
    } else if (F == "--trace") {
      A.Trace = std::strtoul(Val, &End, 10) != 0;
    } else {
      usage("unknown flag");
    }
    if (End && *End)
      usage("malformed number");
  }
  if (!A.Workload)
    usage("--workload is required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parse(Argc, Argv);
  try {
    if (A.Workload->Strings)
      return Run<StringModel>(*A.Workload, A).run();
    return Run<U64Model>(*A.Workload, A).run();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "kvbench: %s\n", E.what());
    return 1;
  }
}
