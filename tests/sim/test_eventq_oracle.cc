/**
 * @file
 * Differential oracle for the event queue.
 *
 * Seeded random operation streams drive an EventQueue and a reference
 * model side by side. The reference is the definition of the queue's
 * contract: a std::set of pending items keyed by (when, priority,
 * seq), where seq counts every schedule in program order. Each
 * dispatch must pop the reference's first item; after every operation
 * size() and nextEventTick() must agree with the reference.
 *
 * The streams mix owned events (schedule, deschedule, reschedule) and
 * pooled one-shots (callAt), with delays chosen around the wheel span
 * W — 0, 1, W-1, W, W+1 and far beyond — so items land on both sides
 * of the near/far split, wrap the wheel index, and meet near items at
 * the same tick. Dispatched events reenter the queue from inside
 * process(): same-tick schedules at a priority above and below their
 * own, and deschedules of other pending events. Time advances through
 * partial run(stop_tick) drains, step() and stops raised by
 * requestStop() from inside an event.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/eventq.hh"
#include "sim/random.hh"

namespace
{

using namespace varsim::sim;

constexpr Tick W = EventQueue::wheelSize;

const Event::Priority priorities[] = {
    Event::memoryResponsePri, Event::cpuTickPri, Event::defaultPri,
    Event::schedulerPri, Event::statsPri,
};

class Oracle;

/** An owned event that reports its dispatch to the oracle. */
class OracleEvent : public Event
{
  public:
    OracleEvent(Oracle &o, int id, Priority p)
        : Event(p), oracle_(o), id_(id)
    {}

    void process() override;
    int id() const { return id_; }

  private:
    Oracle &oracle_;
    int id_;
};

class Oracle
{
  public:
    explicit Oracle(std::uint64_t seed) : rng(seed)
    {
        for (int i = 0; i < numOwned; ++i) {
            owned.push_back(std::make_unique<OracleEvent>(
                *this, i, priorities[i % 5]));
        }
    }

    std::uint64_t
    below(std::uint64_t n)
    {
        return rng.next() % n;
    }

    bool chance(std::uint64_t percent) { return below(100) < percent; }

    /** A delay from the edge cases around W, or a random one. */
    Tick
    delay()
    {
        switch (below(10)) {
          case 0: return 0;
          case 1: return 1;
          case 2: return W - 1;
          case 3: return W;
          case 4: return W + 1;
          case 5: return W + below(8 * W);
          case 6: return 100 * W + below(W);
          default: return below(300);
        }
    }

    /** A tick to schedule at: curTick + delay(), or (sometimes) the
     *  tick of an item already pending, near or far. */
    Tick
    target()
    {
        if (!ref.empty() && chance(15)) {
            auto it = ref.begin();
            std::advance(it, static_cast<long>(below(ref.size())));
            return std::get<0>(*it);
        }
        return q.curTick() + delay();
    }

    void
    refAdd(int id, Tick when, std::int32_t pri)
    {
        const Key k{when, pri, nextSeq++, id};
        ref.insert(k);
        byId[id] = k;
    }

    void
    refRemove(int id)
    {
        auto it = byId.find(id);
        ASSERT_NE(it, byId.end());
        ref.erase(it->second);
        byId.erase(it);
    }

    // ---- operations, each mirrored in the reference ----

    void
    scheduleOwned()
    {
        OracleEvent *ev = owned[below(owned.size())].get();
        const int id = ev->id();
        if (ev->scheduled()) {
            const Tick when = target();
            refRemove(id);
            q.reschedule(ev, when);
            refAdd(id, when, ev->priority());
            return;
        }
        const Tick when = target();
        if (chance(50))
            q.schedule(ev, when);
        else
            q.reschedule(ev, when);
        refAdd(id, when, ev->priority());
    }

    void
    descheduleOwned()
    {
        OracleEvent *ev = owned[below(owned.size())].get();
        if (!ev->scheduled() || ev->id() == stopper)
            return;
        q.deschedule(ev);
        refRemove(ev->id());
    }

    void
    callAt(Tick when, Event::Priority pri)
    {
        const int id = nextCallId++;
        q.callAt(when, [this, id] { fired(id); }, pri);
        refAdd(id, when, pri);
    }

    void
    runPartial()
    {
        const Tick stop = q.curTick() + delay();
        q.run(stop);
        EXPECT_TRUE(ref.empty() || std::get<0>(*ref.begin()) > stop)
            << "run(" << stop << ") left a due event behind";
    }

    void
    stepOnce()
    {
        if (!q.empty())
            q.step();
    }

    /** Arm a pending owned event to requestStop() when it fires, run
     *  to exhaustion, and require the run to end right after it. */
    void
    runUntilStop()
    {
        OracleEvent *ev = owned[below(owned.size())].get();
        if (!ev->scheduled())
            return;
        stopper = ev->id();
        q.run();
        EXPECT_TRUE(q.stopPending());
        EXPECT_EQ(lastFired, ev->id());
        stopper = -1;
        q.clearStop();
    }

    /** Called from every dispatched event's process(). */
    void
    fired(int id)
    {
        ASSERT_FALSE(ref.empty()) << "dispatch of " << id
                                  << " with nothing pending";
        const Key front = *ref.begin();
        ASSERT_EQ(std::get<3>(front), id)
            << "dispatch order diverged at tick " << q.curTick();
        ASSERT_EQ(std::get<0>(front), q.curTick());
        refRemove(id);
        lastFired = id;
        ++numFired;
        if (id == stopper)
            q.requestStop();

        // Reenter the queue: same-tick schedules at a random priority
        // (below, equal to or above this event's), and deschedules and
        // reschedules of other pending events.
        if (chance(25))
            callAt(q.curTick(), priorities[below(5)]);
        if (chance(10))
            descheduleOwned();
        if (chance(10))
            scheduleOwned();
        check();
    }

    /** Compare every observable of the queue with the reference. */
    void
    check()
    {
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.empty(), ref.empty());
        ASSERT_EQ(q.nextEventTick(),
                  ref.empty() ? maxTick : std::get<0>(*ref.begin()));
    }

    /** One random top-level operation, then a full check. */
    void
    op()
    {
        const std::uint64_t r = below(100);
        if (r < 30)
            scheduleOwned();
        else if (r < 40)
            descheduleOwned();
        else if (r < 65)
            callAt(target(), priorities[below(5)]);
        else if (r < 80)
            runPartial();
        else if (r < 95)
            stepOnce();
        else
            runUntilStop();
        check();
    }

    using Key = std::tuple<Tick, std::int32_t, std::uint64_t, int>;

    static constexpr int numOwned = 48;

    SplitMix64 rng;
    std::set<Key> ref;
    std::map<int, Key> byId;
    std::uint64_t nextSeq = 0;
    int nextCallId = numOwned;
    int stopper = -1;
    int lastFired = -1;
    std::uint64_t numFired = 0;
    EventQueue q;
    std::vector<std::unique_ptr<OracleEvent>> owned;
};

void
OracleEvent::process()
{
    oracle_.fired(id_);
}

TEST(EventQueueOracle, MatchesReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Oracle o(seed);
        for (int i = 0; i < 20000; ++i) {
            o.op();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // Drain: whatever is left must come out in reference order.
        o.q.run();
        o.check();
        EXPECT_TRUE(o.q.empty());
        EXPECT_GT(o.numFired, 10000u);
        EXPECT_EQ(o.q.numDispatched(), o.numFired);
    }
}

} // namespace
