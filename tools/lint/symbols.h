/**
 * @file
 * Per-file symbol pass for buffalo_lint: recognizes class bodies with
 * access sections, mutex and BUFFALO_GUARDED_BY members, function
 * definitions (with BUFFALO_REQUIRES / BUFFALO_EXCLUDES annotations),
 * lambda expressions (capture lists, parameters, and the sink they
 * escape into), and unordered-container variable declarations.
 *
 * Everything here is heuristic in the way a linter can afford to be:
 * it never needs to be a full parser, only precise enough that the
 * rules in rules.h fire on real code shapes and stay quiet on the
 * rest. Each recognizer documents the shapes it accepts.
 */
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace buffalo_lint {

/** One entry of a lambda capture list. */
struct Capture
{
    bool by_ref = false;   // & default or &name
    bool is_this = false;  // this (or *this, by value)
    bool is_default = false; // [&] or [=]
    std::string name;      // empty for defaults / this
};

/** How a lambda expression leaves its defining scope, if it does. */
enum class LambdaSink
{
    None,   // immediately invoked, passed to a blocking call, ...
    Call,   // argument of a function/constructor call
    Assign, // right-hand side of an assignment
};

struct Lambda
{
    std::size_t intro = 0;      // '[' token index
    std::size_t body_begin = 0; // '{' token index
    std::size_t body_end = 0;   // matching '}' token index
    std::vector<Capture> captures;
    std::vector<std::string> params;

    LambdaSink sink = LambdaSink::None;
    /** Last identifier of the callee chain (`submit`, `push`, ...). */
    std::string callee;
    /** First identifier of the callee chain (`pool_`, `std`, ...). */
    std::string receiver;
    /** For `Type name(lambda)` declarations, the last Type token. */
    std::string decl_type;
    /** For Assign sinks, the identifier being assigned to. */
    std::string assign_target;

    bool
    hasRefDefault() const
    {
        for (const Capture &c : captures)
            if (c.is_default && c.by_ref)
                return true;
        return false;
    }

    bool
    hasThis() const
    {
        for (const Capture &c : captures)
            if (c.is_this)
                return true;
        return false;
    }

    std::vector<std::string>
    refNames() const
    {
        std::vector<std::string> names;
        for (const Capture &c : captures)
            if (c.by_ref && !c.is_default && !c.name.empty())
                names.push_back(c.name);
        return names;
    }

    bool
    capturesByValue(const std::string &name) const
    {
        for (const Capture &c : captures)
            if (!c.by_ref && c.name == name)
                return true;
        return false;
    }
};

struct Function
{
    std::string name;
    std::string class_name; // enclosing class or out-of-class scope
    std::size_t name_tok = 0;
    std::size_t body_begin = 0; // '{' token index (kNpos: declaration)
    std::size_t body_end = 0;
    bool in_class = false;
    bool is_public = false;
    bool is_ctor_dtor = false;
    std::vector<std::string> excludes;      // BUFFALO_EXCLUDES args
    std::vector<std::string> requires_caps; // BUFFALO_REQUIRES args
};

struct ClassInfo
{
    std::string name;
    bool is_struct = false;
    std::size_t body_begin = 0; // '{' token index
    std::size_t body_end = 0;
    /** member name -> guarding mutex (last identifier of the arg). */
    std::map<std::string, std::string> guarded;
    std::vector<std::string> mutex_members;
    /** (token index, access) transitions, ascending. */
    std::vector<std::pair<std::size_t, bool>> public_at;

    bool
    isPublicAt(std::size_t tok) const
    {
        bool is_public = is_struct;
        for (const auto &[pos, pub] : public_at) {
            if (pos > tok)
                break;
            is_public = pub;
        }
        return is_public;
    }
};

struct FileSymbols
{
    std::vector<ClassInfo> classes;
    std::vector<Function> functions;
    std::vector<Lambda> lambdas;
    /** Variables/members declared as unordered_map / unordered_set. */
    std::set<std::string> unordered_vars;
    /** function name -> mutexes it is annotated EXCLUDES of. */
    std::map<std::string, std::set<std::string>> excludes_by_name;
};

namespace detail {

inline bool
isSkippableQualifier(const std::string &t)
{
    return t == "const" || t == "noexcept" || t == "override" ||
           t == "final" || t == "mutable" || t == "try" ||
           t == "volatile" || t == "&" || t == "&&";
}

inline bool
isRejectedCallee(const std::string &t)
{
    static const std::set<std::string> rejected = {
        "if",     "for",       "while",         "switch",
        "catch",  "return",    "sizeof",        "alignof",
        "alignas", "decltype", "static_assert", "assert",
        "constexpr", "defined", "new",          "delete",
    };
    return rejected.count(t) != 0;
}

/** Last identifier inside the token range (open, close). */
inline std::string
lastIdentIn(const TokenStream &ts, std::size_t open, std::size_t close)
{
    std::string last;
    for (std::size_t i = open + 1; i < close && i < ts.size(); ++i)
        if (ts.tokens[i].kind == TokKind::Ident)
            last = ts.tokens[i].text;
    return last;
}

/** All identifiers inside the token range (open, close). */
inline std::vector<std::string>
identsIn(const TokenStream &ts, std::size_t open, std::size_t close)
{
    std::vector<std::string> idents;
    for (std::size_t i = open + 1; i < close && i < ts.size(); ++i)
        if (ts.tokens[i].kind == TokKind::Ident)
            idents.push_back(ts.tokens[i].text);
    return idents;
}

/**
 * Skips a trailing-return-type chain backwards: from a type token,
 * returns the index before the introducing "->", or kNpos if the
 * tokens do not form a trailing return type.
 */
inline std::size_t
skipTrailingReturnBackwards(const TokenStream &ts, std::size_t j)
{
    std::size_t k = j;
    while (k != kNpos && k > 0) {
        const Token &t = ts.tokens[k];
        if (t.kind == TokKind::Ident || t.text == "::" ||
            t.text == "<" || t.text == ">" || t.text == "*" ||
            t.text == "&" || t.text == "," ||
            t.kind == TokKind::Number) {
            --k;
            continue;
        }
        if (t.text == "->")
            return k == 0 ? kNpos : k - 1;
        return kNpos;
    }
    return kNpos;
}

} // namespace detail

/**
 * Classifies the '{' at token @p i: if it opens a function body,
 * fills @p fn (everything but class/access context) and returns true.
 *
 * Accepted shape, walked backwards from the brace:
 *   name "(" params ")" [qualifiers] [BUFFALO_*(...)]* [-> type] "{"
 * plus constructor-initializer lists between the ")" and the "{".
 */
inline bool
classifyFunctionBrace(const TokenStream &ts, std::size_t i,
                      Function *fn)
{
    if (i == 0 || ts.match[i] == kNpos)
        return false;
    std::size_t j = i - 1;
    bool saw_init_list = false;

    for (int guard = 0; guard < 256 && j != kNpos && j > 0; ++guard) {
        const Token &t = ts.tokens[j];
        if (t.kind == TokKind::Ident &&
            detail::isSkippableQualifier(t.text)) {
            --j;
            continue;
        }
        if (t.text == "&" || t.text == "&&") {
            --j;
            continue;
        }
        if (t.text == ")") {
            const std::size_t open = ts.match[j];
            if (open == kNpos || open == 0)
                return false;
            const Token &before = ts.tokens[open - 1];
            if (before.kind == TokKind::Ident &&
                before.text.rfind("BUFFALO_", 0) == 0) {
                // Annotation macro: harvest and keep walking.
                const auto args = detail::identsIn(ts, open, j);
                if (before.text == "BUFFALO_EXCLUDES")
                    fn->excludes.insert(fn->excludes.end(),
                                        args.begin(), args.end());
                else if (before.text == "BUFFALO_REQUIRES")
                    fn->requires_caps.insert(fn->requires_caps.end(),
                                             args.begin(), args.end());
                if (open < 2)
                    return false;
                j = open - 2;
                continue;
            }
            if (before.kind == TokKind::Ident &&
                before.text == "noexcept") {
                if (open < 2)
                    return false;
                j = open - 2;
                continue;
            }
            // Candidate parameter list.
            if (before.kind != TokKind::Ident)
                return false;
            if (detail::isRejectedCallee(before.text))
                return false;
            // Constructor initializer list: items look like
            // `name(args)` or `name{...}` separated by commas, ending
            // at a single ':' that follows the real parameter ')'.
            std::size_t p = open - 2; // token before the name
            if (p != kNpos && ts.is(p, "~") && p > 0)
                --p;
            while (p != kNpos && p > 1 && ts.is(p, "::"))
                p -= 2; // Class:: qualifications
            if (p != kNpos && (ts.is(p, ":") || ts.is(p, ","))) {
                if (ts.is(p, ",") && !saw_init_list)
                    return false; // `f(g(), [..])` argument, not init
                saw_init_list = true;
                if (ts.is(p, ":")) {
                    // The ctor's own ')' precedes the ':'.
                    if (p == 0)
                        return false;
                    j = p - 1;
                    continue;
                }
                // Another initializer item precedes; keep walking.
                j = p;
                continue;
            }
            fn->name = before.text;
            fn->name_tok = open - 1;
            fn->body_begin = i;
            fn->body_end = ts.match[i];
            if (open >= 3 && ts.is(open - 2, "::") &&
                ts.isKind(open - 3, TokKind::Ident))
                fn->class_name = ts.tokens[open - 3].text;
            return true;
        }
        if (t.text == ",") {
            if (!saw_init_list)
                return false;
            --j;
            continue;
        }
        // Possible trailing return type.
        const std::size_t before_arrow =
            detail::skipTrailingReturnBackwards(ts, j);
        if (before_arrow != kNpos) {
            j = before_arrow;
            continue;
        }
        return false;
    }
    return false;
}

namespace detail {

inline void
findClasses(const TokenStream &ts, FileSymbols *sym)
{
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        const Token &t = ts.tokens[i];
        if (t.kind != TokKind::Ident ||
            (t.text != "class" && t.text != "struct"))
            continue;
        if (i > 0 && ts.isIdent(i - 1, "enum"))
            continue;
        // Skip attribute-like macros between the keyword and the name
        // (e.g. `class BUFFALO_CAPABILITY("mutex") Mutex`).
        std::size_t j = i + 1;
        while (j + 1 < ts.size() &&
               ts.tokens[j].kind == TokKind::Ident &&
               ts.is(j + 1, "(") && ts.match[j + 1] != kNpos &&
               ts.tokens[j].text.rfind("BUFFALO_", 0) == 0)
            j = ts.match[j + 1] + 1;
        if (!ts.isKind(j, TokKind::Ident))
            continue;
        ClassInfo info;
        info.name = ts.tokens[j].text;
        info.is_struct = t.text == "struct";
        // Find the body '{' (skipping a base clause) or bail at ';'.
        std::size_t k = j + 1;
        while (k < ts.size() && !ts.is(k, "{") && !ts.is(k, ";") &&
               !ts.is(k, "(")) // `class Foo;` fwd / `struct tm (...)`
            ++k;
        if (k >= ts.size() || !ts.is(k, "{") || ts.match[k] == kNpos)
            continue;
        info.body_begin = k;
        info.body_end = ts.match[k];
        // Access sections (only at this class's own depth).
        for (std::size_t a = k + 1; a < info.body_end; ++a) {
            if (ts.brace_parent[a] != k)
                continue;
            if (!ts.isKind(a, TokKind::Ident) || !ts.is(a + 1, ":"))
                continue;
            const std::string &word = ts.tokens[a].text;
            if (word == "public")
                info.public_at.emplace_back(a, true);
            else if (word == "private" || word == "protected")
                info.public_at.emplace_back(a, false);
        }
        // Mutex members: `[mutable] [util::|std::] Mutex name ;`.
        for (std::size_t m = k + 1; m + 2 < info.body_end; ++m) {
            if (ts.brace_parent[m] != k)
                continue;
            const std::string &w = ts.tokens[m].text;
            if (ts.tokens[m].kind != TokKind::Ident ||
                (w != "Mutex" && w != "mutex" && w != "shared_mutex" &&
                 w != "recursive_mutex" && w != "timed_mutex"))
                continue;
            if (ts.isKind(m + 1, TokKind::Ident) && ts.is(m + 2, ";"))
                info.mutex_members.push_back(ts.tokens[m + 1].text);
        }
        sym->classes.push_back(std::move(info));
    }
    // Guarded members, attached to the innermost enclosing class.
    for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
        const Token &t = ts.tokens[i];
        if (t.kind != TokKind::Ident ||
            (t.text != "BUFFALO_GUARDED_BY" &&
             t.text != "BUFFALO_PT_GUARDED_BY"))
            continue;
        if (!ts.is(i + 1, "(") || ts.match[i + 1] == kNpos)
            continue;
        if (!ts.isKind(i - 1, TokKind::Ident))
            continue;
        const std::string member = ts.tokens[i - 1].text;
        const std::string mutex =
            lastIdentIn(ts, i + 1, ts.match[i + 1]);
        ClassInfo *owner = nullptr;
        for (ClassInfo &c : sym->classes)
            if (c.body_begin < i && i < c.body_end &&
                (owner == nullptr ||
                 c.body_begin > owner->body_begin))
                owner = &c;
        if (owner != nullptr && !mutex.empty())
            owner->guarded[member] = mutex;
    }
}

inline void
findFunctions(const TokenStream &ts, FileSymbols *sym)
{
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (!ts.is(i, "{"))
            continue;
        Function fn;
        if (!classifyFunctionBrace(ts, i, &fn))
            continue;
        for (const ClassInfo &c : sym->classes) {
            if (c.body_begin < i && i < c.body_end) {
                fn.in_class = true;
                if (fn.class_name.empty())
                    fn.class_name = c.name;
                fn.is_public = c.isPublicAt(fn.name_tok);
                if (fn.name == c.name)
                    fn.is_ctor_dtor = true;
            }
        }
        if (fn.name_tok > 0 && ts.is(fn.name_tok - 1, "~"))
            fn.is_ctor_dtor = true;
        if (!fn.excludes.empty())
            sym->excludes_by_name[fn.name].insert(
                fn.excludes.begin(), fn.excludes.end());
        sym->functions.push_back(std::move(fn));
    }
    // Annotated declarations (no body), e.g.
    //   train::StageReport stats() const BUFFALO_EXCLUDES(stats_mutex_);
    for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
        if (!ts.isIdent(i, "BUFFALO_EXCLUDES") || !ts.is(i + 1, "("))
            continue;
        const std::size_t close = ts.match[i + 1];
        if (close == kNpos)
            return;
        // Find the declared function's name: the identifier before
        // the parameter list that precedes the macro.
        std::size_t j = i - 1;
        while (j != kNpos && j > 0 &&
               (isSkippableQualifier(ts.tokens[j].text) ||
                ts.tokens[j].text == ")")) {
            if (ts.tokens[j].text == ")") {
                const std::size_t open = ts.match[j];
                if (open == kNpos || open == 0)
                    break;
                if (ts.isKind(open - 1, TokKind::Ident) &&
                    !isRejectedCallee(ts.tokens[open - 1].text)) {
                    const auto args = identsIn(ts, i + 1, close);
                    sym->excludes_by_name[ts.tokens[open - 1].text]
                        .insert(args.begin(), args.end());
                }
                break;
            }
            --j;
        }
    }
}

inline void
findUnorderedVars(const TokenStream &ts, FileSymbols *sym)
{
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        const Token &t = ts.tokens[i];
        if (t.kind != TokKind::Ident ||
            (t.text != "unordered_map" && t.text != "unordered_set" &&
             t.text != "unordered_multimap" &&
             t.text != "unordered_multiset"))
            continue;
        if (!ts.is(i + 1, "<"))
            continue;
        // Match the template argument list; ">>" closes two levels.
        int depth = 0;
        std::size_t j = i + 1;
        for (; j < ts.size(); ++j) {
            const std::string &p = ts.tokens[j].text;
            if (p == "<")
                ++depth;
            else if (p == ">")
                --depth;
            else if (p == ">>")
                depth -= 2;
            else if (p == ";" || p == "{")
                break; // not a closed template argument list
            if (depth <= 0)
                break;
        }
        if (j >= ts.size() || depth > 0)
            continue;
        std::size_t k = j + 1;
        while (ts.is(k, "&") || ts.is(k, "*"))
            ++k;
        if (ts.isKind(k, TokKind::Ident))
            sym->unordered_vars.insert(ts.tokens[k].text);
    }
}

/** Parses one capture-list entry spanning tokens [begin, end). */
inline Capture
parseCapture(const TokenStream &ts, std::size_t begin,
             std::size_t end)
{
    Capture cap;
    std::size_t i = begin;
    if (ts.is(i, "&")) {
        cap.by_ref = true;
        ++i;
    } else if (ts.is(i, "=")) {
        cap.is_default = true;
        return cap;
    } else if (ts.is(i, "*")) {
        ++i; // *this
    }
    if (i >= end) {
        cap.is_default = cap.by_ref; // bare '&'
        return cap;
    }
    if (ts.isIdent(i, "this")) {
        cap.is_this = true;
        return cap;
    }
    if (ts.isKind(i, TokKind::Ident))
        cap.name = ts.tokens[i].text;
    // `name = expr` init-captures keep by_ref from the leading '&'.
    return cap;
}

inline void
findLambdas(const TokenStream &ts, FileSymbols *sym)
{
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (!ts.is(i, "[") || ts.match[i] == kNpos)
            continue;
        // Lambda introducer vs. subscript/array: a subscript follows
        // a value (identifier, ')', ']', string, number).
        if (i > 0) {
            const Token &prev = ts.tokens[i - 1];
            if (prev.kind == TokKind::Ident ||
                prev.kind == TokKind::Number ||
                prev.kind == TokKind::String || prev.text == ")" ||
                prev.text == "]")
                continue;
        }
        const std::size_t intro_end = ts.match[i];
        Lambda lam;
        lam.intro = i;
        // Capture list entries, split on top-level commas.
        std::size_t item = i + 1;
        for (std::size_t j = i + 1; j <= intro_end; ++j) {
            const bool at_end = j == intro_end;
            if (!at_end &&
                !(ts.is(j, ",") && ts.paren_parent[j] ==
                                       ts.paren_parent[i + 1]))
                continue;
            if (j > item)
                lam.captures.push_back(parseCapture(ts, item, j));
            item = j + 1;
        }
        // Parameters.
        std::size_t k = intro_end + 1;
        if (ts.is(k, "(") && ts.match[k] != kNpos) {
            const std::size_t close = ts.match[k];
            std::size_t seg_last = kNpos;
            for (std::size_t j = k + 1; j <= close; ++j) {
                if (ts.is(j, ",") || j == close) {
                    if (seg_last != kNpos)
                        lam.params.push_back(
                            ts.tokens[seg_last].text);
                    seg_last = kNpos;
                    continue;
                }
                if (ts.isKind(j, TokKind::Ident) &&
                    !ts.is(j + 1, "::") && !ts.is(j - 1, "::"))
                    seg_last = j;
                if (ts.is(j, "="))
                    // default argument: the name came before it
                    while (j < close && !ts.is(j + 1, ",") &&
                           j + 1 < close)
                        ++j;
            }
            k = close + 1;
        }
        // Skip qualifiers / trailing return up to the body.
        for (int guard = 0; guard < 64 && k < ts.size(); ++guard) {
            if (ts.is(k, "{"))
                break;
            if (ts.is(k, ";") || ts.is(k, ")") || ts.is(k, ","))
                break;
            if (ts.is(k, "(") || ts.is(k, "[")) {
                if (ts.match[k] == kNpos)
                    break;
                k = ts.match[k] + 1;
                continue;
            }
            ++k;
        }
        if (!ts.is(k, "{") || ts.match[k] == kNpos)
            continue;
        lam.body_begin = k;
        lam.body_end = ts.match[k];

        // Sink classification.
        if (i > 0) {
            const Token &prev = ts.tokens[i - 1];
            std::size_t call_open = kNpos;
            if (prev.text == "(")
                call_open = i - 1;
            else if (prev.text == ",")
                call_open = ts.paren_parent[i];
            else if (prev.text == "=" && i >= 2 &&
                     ts.isKind(i - 2, TokKind::Ident)) {
                lam.sink = LambdaSink::Assign;
                lam.assign_target = ts.tokens[i - 2].text;
            }
            if (call_open != kNpos && call_open > 0 &&
                ts.isKind(call_open - 1, TokKind::Ident)) {
                lam.sink = LambdaSink::Call;
                lam.callee = ts.tokens[call_open - 1].text;
                // Walk the receiver chain: a.b->c(...)
                std::size_t p = call_open - 1;
                while (p >= 2 &&
                       (ts.is(p - 1, ".") || ts.is(p - 1, "->") ||
                        ts.is(p - 1, "::")) &&
                       ts.isKind(p - 2, TokKind::Ident))
                    p -= 2;
                lam.receiver = ts.tokens[p].text;
                // `Type name(lambda)` declarations: note the type.
                if (p == call_open - 1 && call_open >= 2 &&
                    ts.isKind(call_open - 2, TokKind::Ident))
                    lam.decl_type = ts.tokens[call_open - 2].text;
            }
        }
        sym->lambdas.push_back(std::move(lam));
    }
}

} // namespace detail

/** Runs every recognizer over @p ts. */
inline FileSymbols
analyze(const TokenStream &ts)
{
    FileSymbols sym;
    detail::findClasses(ts, &sym);
    detail::findFunctions(ts, &sym);
    detail::findUnorderedVars(ts, &sym);
    detail::findLambdas(ts, &sym);
    return sym;
}

} // namespace buffalo_lint
