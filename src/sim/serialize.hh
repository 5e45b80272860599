/**
 * @file
 * Binary checkpoint serialization.
 *
 * The paper relies on the Simics checkpointing facility to start
 * multiple simulation runs from identical initial conditions
 * (Section 3.2.2): space-variability experiments restore one
 * checkpoint many times with different perturbation seeds, and
 * time-variability experiments record checkpoints at several points in
 * a workload's lifetime (Figure 9). This module provides the
 * equivalent facility: a simple, deterministic, tagged binary archive.
 *
 * Every value written is prefixed (in debug builds of the archive
 * itself, always) with a one-byte type tag, so mismatched
 * serialize/unserialize code fails loudly instead of silently
 * misinterpreting bytes.
 */

#ifndef VARSIM_SIM_SERIALIZE_HH
#define VARSIM_SIM_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace varsim
{
namespace sim
{

/** Output archive: values are appended to an in-memory byte buffer. */
class CheckpointOut
{
  public:
    CheckpointOut() = default;

    /** Write a trivially copyable scalar value. */
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "CheckpointOut::put requires a trivially "
                      "copyable type");
        putTag(sizeof(T));
        append(&value, sizeof(T));
    }

    /** Write a string (length-prefixed). */
    void
    put(const std::string &value)
    {
        putTag(0xff);
        put<std::uint64_t>(value.size());
        append(value.data(), value.size());
    }

    /** Write a vector of trivially copyable elements. */
    template <typename T>
    void
    put(const std::vector<T> &values)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vector element must be trivially copyable");
        putTag(0xfe);
        put<std::uint64_t>(values.size());
        append(values.data(), values.size() * sizeof(T));
    }

    /** Write a deque of trivially copyable elements. */
    template <typename T>
    void
    put(const std::deque<T> &values)
    {
        std::vector<T> tmp(values.begin(), values.end());
        put(tmp);
    }

    /** Access the raw serialized bytes. */
    const std::vector<std::uint8_t> &bytes() const { return buffer; }

    /** Current size in bytes. */
    std::size_t size() const { return buffer.size(); }

  private:
    void put(const char *) = delete; // force std::string

    void
    putTag(std::uint8_t tag)
    {
        buffer.push_back(tag);
    }

    /**
     * Append @p n raw bytes. resize + memcpy rather than a ranged
     * insert: GCC 12 cannot see the insert's source bound through
     * the inlining into Simulation::checkpoint and warns
     * -Wstringop-overread.
     */
    void
    append(const void *p, std::size_t n)
    {
        if (n == 0)
            return;
        const std::size_t at = buffer.size();
        buffer.resize(at + n);
        std::memcpy(buffer.data() + at, p, n);
    }

    std::vector<std::uint8_t> buffer;
};

/** Input archive reading back what a CheckpointOut produced. */
class CheckpointIn
{
  public:
    explicit CheckpointIn(std::vector<std::uint8_t> data)
        : buffer(std::move(data))
    {}

    /** Read a trivially copyable scalar value. */
    template <typename T>
    void
    get(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "CheckpointIn::get requires a trivially "
                      "copyable type");
        checkTag(sizeof(T));
        need(sizeof(T));
        std::memcpy(&value, buffer.data() + pos, sizeof(T));
        pos += sizeof(T);
    }

    /** Read a string. */
    void
    get(std::string &value)
    {
        checkTag(0xff);
        std::uint64_t n = 0;
        get(n);
        need(n);
        value.assign(reinterpret_cast<const char *>(buffer.data() + pos),
                     n);
        pos += n;
    }

    /** Read a vector of trivially copyable elements. */
    template <typename T>
    void
    get(std::vector<T> &values)
    {
        checkTag(0xfe);
        std::uint64_t n = 0;
        get(n);
        // Divide rather than multiply: a corrupted length prefix must
        // not overflow n * sizeof(T) into a small in-bounds value.
        if (n > (buffer.size() - pos) / sizeof(T)) {
            panic("checkpoint underrun: need %llu elements of %zu "
                  "bytes at offset %zu, have %zu bytes total",
                  static_cast<unsigned long long>(n), sizeof(T), pos,
                  buffer.size());
        }
        values.resize(n);
        // n == 0 leaves values.data() null; memcpy's arguments are
        // declared nonnull even for zero lengths.
        if (n > 0) {
            std::memcpy(values.data(), buffer.data() + pos,
                        n * sizeof(T));
        }
        pos += n * sizeof(T);
    }

    /** Read a deque of trivially copyable elements. */
    template <typename T>
    void
    get(std::deque<T> &values)
    {
        std::vector<T> tmp;
        get(tmp);
        values.assign(tmp.begin(), tmp.end());
    }

    /** True once all bytes have been consumed. */
    bool exhausted() const { return pos == buffer.size(); }

  private:
    void
    checkTag(std::uint8_t expected)
    {
        need(1);
        std::uint8_t tag = buffer[pos++];
        if (tag != expected) {
            panic("checkpoint type mismatch at offset %zu: "
                  "expected tag %u, found %u",
                  pos - 1, unsigned(expected), unsigned(tag));
        }
    }

    void
    need(std::uint64_t n)
    {
        // pos <= buffer.size() always; compare against the remainder
        // so a huge corrupted n cannot wrap pos + n around zero.
        if (n > buffer.size() - pos) {
            panic("checkpoint underrun: need %llu bytes at offset "
                  "%zu, have %zu total",
                  static_cast<unsigned long long>(n), pos,
                  buffer.size());
        }
    }

    std::vector<std::uint8_t> buffer;
    std::size_t pos = 0;
};

/**
 * Interface for objects that participate in checkpointing.
 *
 * Checkpoints are only taken with the system *drained* (no in-flight
 * memory transactions, no pending events other than re-armable
 * housekeeping timers), so implementations serialize architectural
 * state only.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    /** Write this object's state into @p cp. */
    virtual void serialize(CheckpointOut &cp) const = 0;

    /** Restore this object's state from @p cp. */
    virtual void unserialize(CheckpointIn &cp) = 0;
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_SERIALIZE_HH
