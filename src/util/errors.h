/**
 * @file
 * Exception hierarchy shared by all Buffalo subsystems.
 *
 * Following the fatal-vs-panic distinction: InvalidArgument and friends
 * signal user/configuration mistakes a caller can recover from or report;
 * InternalError signals a broken invariant inside Buffalo itself.
 */
#pragma once

#include <stdexcept>
#include <string>

namespace buffalo {

/** Base class for all Buffalo exceptions. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/** A caller supplied an argument or configuration that is not valid. */
class InvalidArgument : public Error
{
  public:
    explicit InvalidArgument(const std::string &what) : Error(what) {}
};

/** A requested entity (dataset, partition, bucket, ...) does not exist. */
class NotFound : public Error
{
  public:
    explicit NotFound(const std::string &what) : Error(what) {}
};

/** An internal invariant was violated — a Buffalo bug, not a user error. */
class InternalError : public Error
{
  public:
    explicit InternalError(const std::string &what) : Error(what) {}
};

/**
 * Checks a caller-facing precondition, throwing InvalidArgument on failure.
 */
inline void
checkArgument(bool cond, const std::string &msg)
{
    if (!cond)
        throw InvalidArgument(msg);
}

/**
 * checkArgument for a literal message: the string is only built on
 * failure, so a check inside a per-edge loop costs one branch instead of
 * a std::string construction (a heap allocation past 15 characters).
 */
inline void
checkArgument(bool cond, const char *msg)
{
    if (!cond)
        throw InvalidArgument(msg);
}

/** Checks an internal invariant, throwing InternalError on failure. */
inline void
checkInternal(bool cond, const std::string &msg)
{
    if (!cond)
        throw InternalError(msg);
}

/** checkInternal for a literal message (built only on failure). */
inline void
checkInternal(bool cond, const char *msg)
{
    if (!cond)
        throw InternalError(msg);
}

} // namespace buffalo
