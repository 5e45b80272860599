/**
 * @file
 * Directory-based MOSI coherence (SGI-Origin style): an alternative
 * CoherenceFabric to the broadcast snooping bus.
 *
 * Each block has a home node (block-address interleaved, as for
 * DRAM). The home's directory entry tracks the owner cache (if any)
 * and a sharer bitmask. Requests travel point-to-point to the home
 * (50 ns), are serialized there (the per-home order point), and data
 * comes either from memory (80 ns + 50 ns) or is forwarded to the
 * owner (3-hop: 50 + 25 + 50 ns). GetM additionally sends
 * invalidations to sharers; completion waits for data *and* the
 * invalidation acknowledgements.
 *
 * Conflicting in-flight transactions to the same block are NACKed
 * and retried (blocking-directory discipline), and the per-request
 * latency perturbation of the paper's Section 3.3 applies
 * identically, so the variability methodology is protocol-agnostic —
 * which `bench_ablation_protocol` demonstrates.
 *
 * The directory content is *derived* state (who caches what); it is
 * never checkpointed but rebuilt from the restored cache tags
 * (postRestore), which keeps it consistent even across cache-geometry
 * changes.
 */

#ifndef VARSIM_MEM_DIRECTORY_HH
#define VARSIM_MEM_DIRECTORY_HH

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

class DirectoryFabric : public sim::SimObject,
                        public CoherenceFabric
{
  public:
    DirectoryFabric(std::string name, sim::EventQueue &eq,
                    const MemConfig &cfg,
                    sim::Random &perturb_rng);

    void addNode(L2Controller *l2) override;
    void sendRequest(const BusMsg &msg) override;

    MemStats &stats() override { return stats_; }
    const MemStats &stats() const override { return stats_; }

    bool
    blockBusy(sim::Addr block_addr) const override
    {
        return busy.contains(block_addr);
    }

    /** Directory entry introspection (tests). */
    int ownerOf(sim::Addr block_addr) const;
    std::uint64_t sharersOf(sim::Addr block_addr) const;

    bool warmTransition(int src, sim::Addr block,
                        bool writable) override;
    void warmEvict(int src, sim::Addr block) override;

    void drain() override;
    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;
    void postRestore() override;
    void regStats(sim::statistics::Registry &r) override;

  private:
    struct Entry
    {
        int owner = -1;           ///< caching owner, -1 = memory
        /** Requestor of the last granted GetS/GetM; meaningful only
         *  while the block is busy (its fill is in flight). */
        int grantee = -1;
        std::uint64_t sharers = 0;///< bitmask of nodes with copies
    };

    void process(BusMsg msg);
    Entry &entry(sim::Addr block_addr);

    const MemConfig &cfg;
    sim::Random &pertRng;
    DramModel dram_;
    std::vector<L2Controller *> nodes;
    AddrMap<Entry> dir;
    AddrSet busy;
    std::vector<sim::Tick> homeNextFree;
    MemStats stats_;
    sim::statistics::Distribution queueDelayDist;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_DIRECTORY_HH
