/**
 * @file
 * Structured JSONL run log (DESIGN.md, "Memory audit & bench
 * regression"): one JSON object per line, one line per interesting
 * run event — a schedule decision, an explosion split, an OOM retry,
 * a cache hit-rate snapshot, an epoch summary. Unlike the Tracer
 * (sampled spans, bounded rings) the event log is lossless and
 * append-only, which is what makes it greppable/jq-able after a
 * production run.
 *
 * Disabled (the default) an event costs one relaxed atomic load and
 * nothing else; enabled, the emitting thread serializes its line
 * locally and appends it under one short mutex. Event *type* names
 * must come from src/obs/names.h (`buffalo_lint` rule `obs-name`
 * covers `event(` call sites); field keys are free-form literals
 * local to the emitting site.
 *
 * Usage:
 *   obs::eventLog().open("run.jsonl");
 *   obs::eventLog().event(obs::names::kEvSchedulerSchedule)
 *       .field("k", 4)
 *       .field("seconds", 0.012);   // line emitted at end of statement
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/thread_annotations.h"

namespace buffalo::obs {

class EventLog;

/**
 * Builder for one JSONL event; the line is emitted when the builder
 * goes out of scope (normally the end of the full expression it was
 * created in). Inert — all calls no-ops — when the log is disabled.
 */
class EventBuilder
{
  public:
    EventBuilder(EventBuilder &&other) noexcept;
    EventBuilder(const EventBuilder &) = delete;
    EventBuilder &operator=(const EventBuilder &) = delete;

    EventBuilder &field(std::string_view key, double value);
    EventBuilder &field(std::string_view key, std::uint64_t value);
    EventBuilder &field(std::string_view key, std::int64_t value);
    EventBuilder &field(std::string_view key, int value);
    EventBuilder &field(std::string_view key, bool value);
    EventBuilder &field(std::string_view key, std::string_view value);
    /** Guards against the const char* -> bool standard conversion. */
    EventBuilder &field(std::string_view key, const char *value);

    /** Emits the line (also done by the destructor). */
    ~EventBuilder();

  private:
    friend class EventLog;

    /** Inert builder (log disabled). */
    EventBuilder() = default;

    EventBuilder(EventLog *log, const char *type);

    EventLog *log_ = nullptr; // null = inert
    JsonWriter writer_;
};

/**
 * A process-wide JSONL event sink. Thread-safe; events from
 * concurrent threads interleave whole-line, never intra-line.
 */
class EventLog
{
  public:
    EventLog() = default;
    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /**
     * Opens (truncating) @p path and enables the log.
     * @throws Error when the file cannot be opened.
     */
    void open(const std::string &path) BUFFALO_EXCLUDES(mutex_);

    /** Flushes and disables; subsequent events are dropped cheaply. */
    void close() BUFFALO_EXCLUDES(mutex_);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Starts an event of @p type (a constant from obs/names.h with
     * static storage duration). The returned builder emits its line
     * when destroyed; when the log is disabled the builder is inert.
     */
    EventBuilder event(const char *type);

    /** Lines emitted since open(). */
    std::uint64_t eventsWritten() const BUFFALO_EXCLUDES(mutex_);

  private:
    friend class EventBuilder;

    /** Microseconds since open() (monotonic). */
    std::uint64_t nowMicrosLocked() const BUFFALO_REQUIRES(mutex_);

    /** Writes @p object (a complete JSON object without ts_us) as
     *  one line, with ts_us stamped under the lock that orders the
     *  lines, so timestamps are non-decreasing down the file. */
    void writeLine(const std::string &object) BUFFALO_EXCLUDES(mutex_);

    std::atomic<bool> enabled_{false};

    mutable util::Mutex mutex_;
    std::ofstream out_ BUFFALO_GUARDED_BY(mutex_);
    std::uint64_t events_written_ BUFFALO_GUARDED_BY(mutex_) = 0;
    std::chrono::steady_clock::time_point epoch_
        BUFFALO_GUARDED_BY(mutex_);
};

/** The process-wide event log the built-in instrumentation feeds. */
EventLog &eventLog();

} // namespace buffalo::obs
