// Transaction representation shared by every engine.
//
// Transactions are one-shot stored procedures (as in the paper's
// evaluation, Section 4.4): parameters are materialized up front, there is
// no client interaction mid-transaction, and the read/write set either
// follows directly from the parameters or is estimated by an OLLP
// reconnaissance pass (Section 3.2).
#ifndef ORTHRUS_TXN_TXN_H_
#define ORTHRUS_TXN_TXN_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "storage/database.h"

namespace orthrus::txn {

enum class LockMode : std::uint8_t {
  kShared = 0,
  kExclusive = 1,
};

inline bool Conflicts(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

// One entry of a transaction's access set.
struct Access {
  std::uint32_t table = 0;
  LockMode mode = LockMode::kShared;
  std::uint64_t key = 0;
  void* row = nullptr;  // resolved (runtime::ResolveRows) before any lock
};

class TxnLogic;

// Reusable transaction descriptor. Engines own a small pool of these (one
// per in-flight transaction slot) and recycle them; no allocation happens
// on the hot path.
class Txn {
 public:
  static constexpr std::size_t kParamBytes = 256;

  // Declared access set. Generators fill it via TxnLogic::BuildAccessSet;
  // the order is the procedure's natural (dynamic) access order. Engines
  // that need a different order (deadlock-free: global key order; ORTHRUS:
  // grouped by CC thread) sort their own view.
  std::vector<Access> accesses;

  TxnLogic* logic = nullptr;

  // Wait-die timestamp / age; assigned by the engine at first dispatch and
  // retained across deadlock restarts so old transactions eventually win.
  std::uint64_t timestamp = 0;

  // Cycle at which the engine first dispatched this transaction instance
  // (for commit latency measurement).
  std::uint64_t start_cycles = 0;

  // Number of restarts due to deadlock handling or OLLP mismatch.
  std::uint32_t restarts = 0;

  // Inline parameter storage, interpreted by the TxnLogic that owns this
  // transaction type.
  template <typename P>
  P* Params() {
    static_assert(sizeof(P) <= kParamBytes, "enlarge Txn::kParamBytes");
    return reinterpret_cast<P*>(params_);
  }
  template <typename P>
  const P* Params() const {
    static_assert(sizeof(P) <= kParamBytes, "enlarge Txn::kParamBytes");
    return reinterpret_cast<const P*>(params_);
  }

  // Finds the resolved row of the access matching (table, key). Engines may
  // reorder `accesses`, so procedure logic locates its rows by identity
  // rather than by position. Linear scan: access sets are small.
  void* RowFor(std::uint32_t table, std::uint64_t key) const {
    for (const Access& a : accesses) {
      if (a.table == table && a.key == key) return a.row;
    }
    return nullptr;
  }

  void ResetForReuse() {
    accesses.clear();
    logic = nullptr;
    timestamp = 0;
    start_cycles = 0;
    restarts = 0;
  }

 private:
  alignas(8) std::uint8_t params_[kParamBytes];
};

// Execution environment handed to stored-procedure logic.
struct ExecContext {
  storage::Database* db = nullptr;
  WorkerStats* stats = nullptr;
  // When false, the engine already charged the per-operation cycle costs
  // while interleaving lock acquisition with execution (the 2PL dynamic
  // model); logic should then perform real memory effects without charging
  // again. When true, logic charges costs as it executes.
  bool charge_cycles = true;

  void ChargeOp(hal::Cycles c) const {
    if (charge_cycles) hal::ConsumeCycles(c);
  }
};

// A transaction *type*: stateless singleton describing how to build the
// access set and how to execute. Parameters live in the Txn.
class TxnLogic {
 public:
  virtual ~TxnLogic() = default;

  // Fills txn->accesses from txn params. May perform unlocked
  // reconnaissance reads against `db` (OLLP); such logic must return true
  // from NeedsReconnaissance and validate its estimate inside Run.
  virtual void BuildAccessSet(Txn* t, storage::Database* db) = 0;

  // True when the access set depends on data (so estimates can go stale and
  // Run may request a re-plan).
  virtual bool NeedsReconnaissance() const { return false; }

  // Executes the procedure. All accesses are locked and rows resolved.
  // Returns false to signal a stale OLLP estimate: the engine must release
  // all locks, rebuild the access set, and retry.
  virtual bool Run(Txn* t, const ExecContext& ctx) = 0;

  // Modeled cycle cost of access i's work (row touch + compute); used by
  // the 2PL engine to interleave execution cost with lock acquisition.
  virtual hal::Cycles OpCost(const Txn* t, std::size_t i,
                             storage::Database* db) const;
};

// Sort helper: canonical global order used by deadlock-free locking
// ("lexicographic" in the paper): by table id, then key.
struct AccessKeyOrder {
  bool operator()(const Access& a, const Access& b) const {
    if (a.table != b.table) return a.table < b.table;
    return a.key < b.key;
  }
};

}  // namespace orthrus::txn

#endif  // ORTHRUS_TXN_TXN_H_
