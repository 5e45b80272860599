/**
 * @file
 * The address network: a totally ordered broadcast "bus" abstracting
 * the paper's two-level crossbar hierarchy, plus the home-memory DRAM
 * model.
 *
 * All coherence requests are serialized here — the order point is the
 * single source of truth for MOSI state transitions, which happen
 * atomically when a request is snooped. Data movement is modelled as
 * latency (owner 25 ns or DRAM 80 ns, plus a 50 ns network traversal
 * and the per-miss pseudo-random perturbation of Section 3.3).
 *
 * Requests that hit a block with an in-flight transaction are NACKed
 * and retried by the requesting controller, as in real snooping
 * systems; the retry timing is itself a (deterministic) function of
 * the schedule, which further amplifies injected perturbations into
 * divergent executions — the mechanism at the heart of the paper's
 * space-variability results.
 *
 * A broadcast is modelled, but on the host only the nodes that may
 * hold the block are snooped (the holder filter, see SnoopBus): a
 * node without a valid copy has no transition to apply and reports
 * Invalid, so skipping it changes nothing the model can observe.
 */

#ifndef VARSIM_MEM_SNOOP_BUS_HH
#define VARSIM_MEM_SNOOP_BUS_HH

#include <vector>

#include "mem/addr_map.hh"
#include "mem/addr_set.hh"
#include "mem/dram.hh"
#include "mem/fabric.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/statistics.hh"

namespace varsim
{
namespace mem
{

class L2Controller;

/**
 * The ordered broadcast address network plus protocol engine.
 *
 * Every ordered GetS/GetM is, in the model, snooped by every node.
 * On the host, snoop() and warmTransition() walk only the nodes set
 * in the block's holder mask (holdersOf), in ascending node id — the
 * order a walk over every node would visit them in — so back-probes
 * fire in the same order and with the same sequence numbers. The mask is host-side bookkeeping, not a modelled snoop
 * filter: it costs no time, adds no statistic and is never
 * checkpointed (postRestore rebuilds it from the cache tags).
 */
class SnoopBus : public sim::SimObject, public CoherenceFabric
{
  public:
    SnoopBus(std::string name, sim::EventQueue &eq,
             const MemConfig &cfg, sim::Random &perturb_rng);

    /** Register a node's L2 controller. Order defines node ids. */
    void addNode(L2Controller *l2) override;

    /**
     * Enqueue a request for global ordering. The source controller
     * will later receive exactly one of handleNack() or
     * fillArrived() (except PutM, which is fire-and-forget).
     */
    void sendRequest(const BusMsg &msg) override;

    /** Statistics counters owned by the bus. */
    MemStats &stats() override { return stats_; }
    const MemStats &stats() const override { return stats_; }

    /** The DRAM model (exposed for tests). */
    DramModel &dram() { return dram_; }

    /** True if a transaction is in flight for @p block_addr. */
    bool
    blockBusy(sim::Addr block_addr) const override
    {
        return busy.contains(block_addr);
    }

    /**
     * Holder-filter introspection (tests): a superset of the nodes
     * holding a valid L2 copy of @p block_addr, one bit per node id.
     */
    std::uint64_t holdersOf(sim::Addr block_addr) const;

    bool warmTransition(int src, sim::Addr block,
                        bool writable) override;
    void warmEvict(int src, sim::Addr block) override;

    void drain() override;
    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;
    void postRestore() override;
    void regStats(sim::statistics::Registry &r) override;

  private:
    void snoop(BusMsg msg);

    /**
     * The order point of a granted GetS/GetM: update the holder mask
     * and apply the snoop transitions (snoopAndHandle) on every node
     * it names. Returns the pre-transition owner node, or -1 when
     * memory owns the block.
     */
    int snoopHolders(const BusMsg &msg);

    const MemConfig &cfg;
    sim::Random &pertRng;
    DramModel dram_;
    std::vector<L2Controller *> nodes;
    /**
     * Holder filter. Invariant: if node n holds a valid L2 copy of
     * block b, bit n of holders[b] is set. Stale bits (silent or
     * dirty evictions) are allowed; their tag walk finds nothing.
     */
    AddrMap<std::uint64_t> holders;
    AddrSet busy;
    sim::Tick nextOrderTick = 0;
    MemStats stats_;
    sim::statistics::Distribution queueDelayDist;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_SNOOP_BUS_HH
