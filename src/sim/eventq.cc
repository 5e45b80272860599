#include "sim/eventq.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace varsim
{
namespace sim
{

Event::~Event()
{
    if (scheduled_ && queue_)
        queue_->deschedule(this);
}

void
CallbackEvent::process()
{
    invoke_(storage_);
    // The callable may have scheduled further one-shots (pulling from
    // the free list); this event only becomes reusable now.
    reset();
    owner_.releaseCallback(this);
}

EventQueue::EventQueue()
{
    // Far events are a few percent of all schedules; keep their heap
    // free of regrowth in steady state anyway.
    heap.reserve(256);
}

EventQueue::~EventQueue()
{
    // Detach whatever is still pending, so events that outlive the
    // queue (or die with its callback pool) never call back into it.
    for (const Slot &slot : slots) {
        for (Event *ev = slot.head; ev != nullptr; ev = ev->next_) {
            ev->scheduled_ = false;
            ev->queue_ = nullptr;
        }
    }
    for (const HeapEntry &e : heap) {
        e.ev->scheduled_ = false;
        e.ev->queue_ = nullptr;
    }
}

CallbackEvent *
EventQueue::acquireCallback()
{
    if (freeCallbacks != nullptr) {
        CallbackEvent *ev = freeCallbacks;
        freeCallbacks = ev->nextFree_;
        ev->nextFree_ = nullptr;
        return ev;
    }
    callbackPool.emplace_back(new CallbackEvent(*this));
    return callbackPool.back().get();
}

void
EventQueue::releaseCallback(CallbackEvent *ev)
{
    ev->nextFree_ = freeCallbacks;
    freeCallbacks = ev;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    VARSIM_ASSERT(ev != nullptr, "scheduling null event");
    VARSIM_ASSERT(!ev->scheduled_, "event '%s' already scheduled",
                  ev->name().c_str());
    VARSIM_ASSERT(when >= curTick_,
                  "event '%s' scheduled in the past (%llu < %llu)",
                  ev->name().c_str(),
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curTick_));

    ev->when_ = when;
    ev->seq_ = nextSeq++;
    ev->scheduled_ = true;
    ev->queue_ = this;
    if (when - curTick_ < wheelSize)
        linkWheel(ev);
    else
        pushEntry({when, ev->priority(), ev->seq_, ev});
    ++numPending;
}

void
EventQueue::deschedule(Event *ev)
{
    VARSIM_ASSERT(ev != nullptr, "descheduling null event");
    VARSIM_ASSERT(ev->scheduled_, "event '%s' not scheduled",
                  ev->name().c_str());
    if (ev->heapPos_ == onWheel)
        unlinkWheel(ev);
    else
        removeEntry(ev->heapPos_);
    ev->scheduled_ = false;
    ev->queue_ = nullptr;
    --numPending;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::restoreTick(Tick t)
{
    VARSIM_ASSERT(empty(), "restoreTick with %zu pending events",
                  numPending);
    VARSIM_ASSERT(t >= curTick_, "restoreTick into the past");
    curTick_ = t;
}

void
EventQueue::linkWheel(Event *ev)
{
    const std::size_t s = ev->when_ & wheelMask;
    Slot &slot = slots[s];
    // ev carries the largest seq so far, so it goes right after the
    // last entry whose priority does not exceed its own — almost
    // always the tail.
    Event *prev = slot.tail;
    while (prev != nullptr && prev->priority_ > ev->priority_)
        prev = prev->prev_;
    Event *next = prev != nullptr ? prev->next_ : slot.head;
    ev->prev_ = prev;
    ev->next_ = next;
    ev->heapPos_ = onWheel;
    (prev != nullptr ? prev->next_ : slot.head) = ev;
    (next != nullptr ? next->prev_ : slot.tail) = ev;
    occupied[s / 64] |= std::uint64_t{1} << (s % 64);
    occupiedWords |= std::uint32_t{1} << (s / 64);
}

void
EventQueue::unlinkWheel(Event *ev)
{
    const std::size_t s = ev->when_ & wheelMask;
    Slot &slot = slots[s];
    (ev->prev_ != nullptr ? ev->prev_->next_ : slot.head) = ev->next_;
    (ev->next_ != nullptr ? ev->next_->prev_ : slot.tail) = ev->prev_;
    if (slot.head == nullptr) {
        occupied[s / 64] &= ~(std::uint64_t{1} << (s % 64));
        if (occupied[s / 64] == 0)
            occupiedWords &= ~(std::uint32_t{1} << (s / 64));
    }
}

Tick
EventQueue::wheelNextFrom(Tick from) const
{
    // Offset of @p from inside the window [curTick_, curTick_ + W).
    const Tick offset = from - curTick_;
    if (occupiedWords == 0 || offset >= wheelSize)
        return maxTick;
    const std::size_t base = from & wheelMask;
    const std::size_t w0 = base / 64;
    const std::uint64_t here =
        occupied[w0] & (~std::uint64_t{0} << (base % 64));
    std::size_t s;
    if (here != 0) {
        s = w0 * 64 + std::countr_zero(here);
    } else {
        // The first occupied word above w0; failing that, wrap round
        // to the lowest one (w0's own low bits included).
        const std::uint32_t above =
            occupiedWords & ~((std::uint32_t{2} << w0) - 1);
        const std::size_t w =
            std::countr_zero(above != 0 ? above : occupiedWords);
        s = w * 64 + std::countr_zero(occupied[w]);
    }
    // Slot s holds the window's one tick congruent to s; past the end
    // of the window it is a tick before @p from, already passed over.
    const Tick d = (s - base) & wheelMask;
    return offset + d < wheelSize ? from + d : maxTick;
}

Event *
EventQueue::popNext(Tick limit)
{
    const Tick wt = wheelNextFrom(curTick_);
    Event *ev = wt != maxTick ? slots[wt & wheelMask].head : nullptr;
    if (!heap.empty() &&
        (ev == nullptr ||
         HeapEntry{wt, ev->priority_, ev->seq_, ev} > heap.front())) {
        if (heap.front().when > limit)
            return nullptr;
        Event *far = heap.front().ev;
        removeEntry(0);
        return far;
    }
    if (ev == nullptr || wt > limit)
        return nullptr;
    unlinkWheel(ev);
    return ev;
}

void
EventQueue::dispatch(Event *ev)
{
    VARSIM_ASSERT(ev->when_ >= curTick_,
                  "time went backwards dispatching '%s'",
                  ev->name().c_str());
    curTick_ = ev->when_;
    ev->scheduled_ = false;
    ev->queue_ = nullptr;
    --numPending;
    ++dispatched;
    ev->process();
}

Tick
EventQueue::run(Tick stop_tick)
{
    while (!stopRequested) {
        Event *ev = popNext(stop_tick);
        if (ev == nullptr)
            break;
        dispatch(ev);
    }
    return curTick_;
}

void
EventQueue::step()
{
    Event *ev = popNext(maxTick);
    VARSIM_ASSERT(ev != nullptr, "step() on empty event queue");
    dispatch(ev);
}

// A 4-ary heap: half the depth of a binary heap and the four
// children share cache lines. The comparator is a strict total order
// over (when, priority, seq), so the dispatch sequence is identical
// to any other correct heap — event order, and with it every golden,
// is unaffected by the arity. Every move records the entry's index in
// its event, which is what lets deschedule remove it in place.

void
EventQueue::place(std::size_t i, const HeapEntry &e)
{
    heap[i] = e;
    e.ev->heapPos_ = static_cast<std::uint32_t>(i);
}

void
EventQueue::pushEntry(const HeapEntry &e)
{
    heap.push_back(e);
    siftUp(heap.size() - 1);
}

void
EventQueue::removeEntry(std::size_t i)
{
    const HeapEntry last = heap.back();
    heap.pop_back();
    if (i == heap.size())
        return;
    heap[i] = last;
    if (i > 0 && heap[(i - 1) / 4] > last)
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::siftUp(std::size_t i)
{
    const HeapEntry e = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (heap[parent] > e) {
            place(i, heap[parent]);
            i = parent;
        } else {
            break;
        }
    }
    place(i, e);
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap.size();
    const HeapEntry e = heap[i];
    while (true) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + 4, n);
        std::size_t smallest = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (heap[smallest] > heap[c])
                smallest = c;
        }
        if (!(e > heap[smallest]))
            break;
        place(i, heap[smallest]);
        i = smallest;
    }
    place(i, e);
}

} // namespace sim
} // namespace varsim
