#include "obs/event_log.h"

#include "util/errors.h"

namespace buffalo::obs {

// ---------------------------------------------------------------- EventBuilder

EventBuilder::EventBuilder(EventLog *log, const char *type) : log_(log)
{
    // No ts_us yet: writeLine stamps it under the lock that orders
    // the lines, so the log's timestamps never run backwards.
    writer_.beginObject();
    writer_.key("ev").value(type);
}

EventBuilder::EventBuilder(EventBuilder &&other) noexcept
    : log_(other.log_), writer_(std::move(other.writer_))
{
    other.log_ = nullptr;
}

EventBuilder &
EventBuilder::field(std::string_view key, double value)
{
    if (log_ != nullptr)
        writer_.key(key).value(value);
    return *this;
}

EventBuilder &
EventBuilder::field(std::string_view key, std::uint64_t value)
{
    if (log_ != nullptr)
        writer_.key(key).value(value);
    return *this;
}

EventBuilder &
EventBuilder::field(std::string_view key, std::int64_t value)
{
    if (log_ != nullptr)
        writer_.key(key).value(value);
    return *this;
}

EventBuilder &
EventBuilder::field(std::string_view key, int value)
{
    if (log_ != nullptr)
        writer_.key(key).value(value);
    return *this;
}

EventBuilder &
EventBuilder::field(std::string_view key, bool value)
{
    if (log_ != nullptr)
        writer_.key(key).value(value);
    return *this;
}

EventBuilder &
EventBuilder::field(std::string_view key, std::string_view value)
{
    if (log_ != nullptr)
        writer_.key(key).value(value);
    return *this;
}

EventBuilder &
EventBuilder::field(std::string_view key, const char *value)
{
    return field(key, std::string_view(value));
}

EventBuilder::~EventBuilder()
{
    if (log_ == nullptr)
        return;
    writer_.endObject();
    log_->writeLine(writer_.str());
}

// -------------------------------------------------------------------- EventLog

void
EventLog::open(const std::string &path)
{
    util::MutexLock lock(mutex_);
    // Truncate: a run log documents one run, and ts_us restarts at 0
    // on every open() — appending across runs would interleave clocks
    // (and fail obs_validate's monotone-timestamp check).
    out_.open(path, std::ios::out | std::ios::trunc);
    if (!out_)
        throw Error("EventLog: cannot open run log: " + path);
    events_written_ = 0;
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_release);
}

void
EventLog::close()
{
    enabled_.store(false, std::memory_order_release);
    util::MutexLock lock(mutex_);
    if (out_.is_open()) {
        out_.flush();
        out_.close();
    }
}

EventBuilder
EventLog::event(const char *type)
{
    if (!enabled())
        return EventBuilder();
    return EventBuilder(this, type);
}

std::uint64_t
EventLog::eventsWritten() const
{
    util::MutexLock lock(mutex_);
    return events_written_;
}

std::uint64_t
EventLog::nowMicrosLocked() const
{
    const auto delta = std::chrono::steady_clock::now() - epoch_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(delta)
            .count());
}

void
EventLog::writeLine(const std::string &object)
{
    util::MutexLock lock(mutex_);
    if (!out_.is_open())
        return; // closed between the enabled() check and now
    // object is "{...}" with at least the "ev" member; ts_us goes in
    // first, read on the clock while this thread holds the line order.
    out_ << "{\"ts_us\":" << nowMicrosLocked() << ','
         << std::string_view(object).substr(1) << '\n';
    ++events_written_;
}

EventLog &
eventLog()
{
    static EventLog instance;
    return instance;
}

} // namespace buffalo::obs
