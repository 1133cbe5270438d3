/**
 * @file
 * The dataflow rule catalogue (rides on the FlowIndex from
 * dataflow.cc).
 *
 * Four rules that need interprocedural facts rather than token
 * patterns:
 *
 *  - nondeterminism-taint: host-pointer values (reinterpret_cast to an
 *                          integer, uintptr_t casts, std::hash of a
 *                          pointer) and host clock/rand/env sources
 *                          must not reach StatSet values,
 *                          exp::configKey inputs, or JSONL output —
 *                          tracked through assignments and calls, with
 *                          a SARIF code-flow witness.
 *  - callback-lifetime:    a scheduled EventQueue callback that
 *                          captures the address of a stack local or an
 *                          iterator into one runs after the owning
 *                          scope has exited; the capture dangles even
 *                          when scheduled for the current cycle.
 *  - ff-stat-parity:       every stat written under an `ff(tick)`
 *                          root's hot call tree must also be written
 *                          under the class's `ff(skip)` counterpart or
 *                          carry `ff-exempt -- why` — otherwise
 *                          fast-forwarded runs silently under-count.
 *  - check-purity-flow:    calls inside SPBURST_CHECK /
 *                          SPBURST_CHECK_SLOW whose callee
 *                          (transitively) writes architectural state
 *                          or non-check.* stats make checked and
 *                          unchecked runs diverge; src/check/ helpers
 *                          are the carved-out check domain.
 */

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/model.hh"
#include "analysis/util.hh"

namespace spburst::lint
{

namespace
{

void
add(std::vector<Finding> &out, std::string_view rule,
    const std::string &relPath, int line, int col, std::string message,
    std::vector<FlowStep> flow = {})
{
    Finding f;
    f.ruleId = std::string(rule);
    f.file = relPath;
    f.line = line;
    f.col = col;
    f.message = std::move(message);
    f.flow = std::move(flow);
    out.push_back(std::move(f));
}

bool
annotated(const FileContext &file, int line, const char *tag)
{
    for (int l = line - 1; l <= line; ++l) {
        const auto it = file.annotations.find(l);
        if (it != file.annotations.end() && it->second.count(tag))
            return true;
    }
    return false;
}

std::size_t
fileIndexOf(const Project &project, const FileContext &file)
{
    for (std::size_t i = 0; i < project.files.size(); ++i)
        if (project.files[i].get() == &file)
            return i;
    return project.files.size();
}

/** Function indices defined in @p file, ascending. */
std::vector<std::size_t>
functionsIn(const Project &project, std::size_t fileIdx)
{
    std::vector<std::size_t> out;
    for (std::size_t f = 0; f < project.decls.functions.size(); ++f) {
        const FunctionDecl &fn = project.decls.functions[f];
        if (fn.hasBody && fn.fileIndex == fileIdx)
            out.push_back(f);
    }
    return out;
}

/** Innermost function in @p fileIdx whose body contains token @p tok,
 *  or functions.size(). */
std::size_t
enclosingFn(const Project &project, std::size_t fileIdx,
            std::size_t tok)
{
    std::size_t best = project.decls.functions.size();
    std::size_t bestBegin = 0;
    for (std::size_t f = 0; f < project.decls.functions.size(); ++f) {
        const FunctionDecl &fn = project.decls.functions[f];
        if (fn.hasBody && fn.fileIndex == fileIdx &&
            fn.bodyBegin < tok && tok < fn.bodyEnd &&
            (best == project.decls.functions.size() ||
             fn.bodyBegin > bestBegin)) {
            best = f;
            bestBegin = fn.bodyBegin;
        }
    }
    return best;
}

std::string
qualName(const FunctionDecl &fn)
{
    return fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name;
}

// ---------------------------------------------------------------------
// Rule: nondeterminism-taint
// ---------------------------------------------------------------------

class NondeterminismTaintRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"nondeterminism-taint",
                "host-nondeterministic values (pointer casts, pointer "
                "hashes, clocks, rand, env) must not reach StatSet "
                "values, exp::configKey inputs, or JSONL output — "
                "results must be bit-identical across runs"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        if (!project.flow)
            return;
        const FlowIndex &fi = *project.flow;
        const std::size_t fileIdx = fileIndexOf(project, file);
        for (const std::size_t f : functionsIn(project, fileIdx)) {
            const FnSummary &s = fi.fn[f];
            TaintEval ev(project, fi, f);
            for (const FnSummary::Sink &snk : s.sinks) {
                TaintEval::Result r = ev.eval(snk.value);
                if (!r.indep)
                    continue;
                std::vector<FlowStep> flow = r.steps;
                pushStep(flow, file.relPath, snk.line,
                         "reaches " + snk.desc);
                add(out, info().id, file.relPath, snk.line, snk.col,
                    "host-nondeterministic value reaches " + snk.desc +
                        ": results will differ between runs; derive "
                        "the value from simulated state instead",
                    std::move(flow));
            }
            // Caller side: a tainted argument handed to a callee whose
            // parameter (transitively) reaches a sink.
            for (const CallSite &cs : s.calls) {
                const std::size_t c = fi.resolve(project, f, cs);
                if (c >= fi.fn.size() || fi.sinkParams[c] == 0)
                    continue;
                for (unsigned j = 0; j < cs.args.size() && j < 32; ++j) {
                    if (!(fi.sinkParams[c] & (1u << j)))
                        continue;
                    TaintEval::Result r = ev.eval(cs.args[j]);
                    if (!r.indep)
                        continue;
                    std::vector<FlowStep> flow = r.steps;
                    pushStep(flow, file.relPath, cs.line,
                             "passed as argument " +
                                 std::to_string(j + 1) + " to '" +
                                 cs.name + "'");
                    const auto it = fi.sinkParamSteps[c].find(j);
                    if (it != fi.sinkParamSteps[c].end())
                        for (const FlowStep &st : it->second)
                            pushStep(flow, st.file, st.line, st.note);
                    add(out, info().id, file.relPath, cs.line, 0,
                        "host-nondeterministic value passed to '" +
                            cs.name +
                            "' flows into a determinism-sensitive "
                            "sink; results will differ between runs",
                        std::move(flow));
                }
            }
        }
    }
};

// ---------------------------------------------------------------------
// Rule: callback-lifetime
// ---------------------------------------------------------------------

class CallbackLifetimeRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"callback-lifetime",
                "a scheduled callback runs after the scheduling frame "
                "returns: capturing the address of a stack local or an "
                "iterator into one by value dangles by the time the "
                "event fires"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        const std::size_t fileIdx = fileIndexOf(project, file);
        const std::vector<Token> &toks = file.lex.tokens;
        for (const std::size_t f : functionsIn(project, fileIdx)) {
            const FunctionDecl &fn = project.decls.functions[f];
            const Cfg cfg = buildCfg(toks, fn.bodyBegin, fn.bodyEnd);

            // Track, token-ordered: variables holding &local, and
            // iterators obtained from a local container.
            struct Target
            {
                std::string local;   //!< the stack variable at risk
                std::size_t localIdx; //!< into cfg.locals
                bool iterator;
            };
            std::map<std::string, Target> risky;
            auto localOf = [&](const std::string &name,
                               std::size_t at) -> std::size_t {
                const std::size_t li = cfg.localAt(name, at);
                if (li < cfg.locals.size() && !cfg.locals[li].isStatic)
                    return li;
                return cfg.locals.size();
            };
            for (std::size_t i = fn.bodyBegin + 1;
                 i + 2 < fn.bodyEnd; ++i) {
                // p = &x  /  T *p = &x
                if (toks[i].kind == TokKind::Ident &&
                    isPunct(toks[i + 1], "=") &&
                    isPunct(toks[i + 2], "&") && i + 3 < fn.bodyEnd &&
                    toks[i + 3].kind == TokKind::Ident) {
                    const std::string target(toks[i + 3].text);
                    const std::size_t li = localOf(target, i + 3);
                    if (li < cfg.locals.size())
                        risky[std::string(toks[i].text)] =
                            Target{target, li, false};
                    continue;
                }
                // it = c.begin() / c.end() / c.find(...) / c.cbegin()
                if (toks[i].kind == TokKind::Ident &&
                    isPunct(toks[i + 1], "=") && i + 5 < fn.bodyEnd &&
                    toks[i + 2].kind == TokKind::Ident &&
                    (isPunct(toks[i + 3], ".") ||
                     isPunct(toks[i + 3], "->")) &&
                    toks[i + 4].kind == TokKind::Ident &&
                    isPunct(toks[i + 5], "(")) {
                    const std::string_view m = toks[i + 4].text;
                    if (m == "begin" || m == "end" || m == "cbegin" ||
                        m == "cend" || m == "find" || m == "rbegin" ||
                        m == "rend") {
                        const std::string cont(toks[i + 2].text);
                        const std::size_t li = localOf(cont, i + 2);
                        if (li < cfg.locals.size())
                            risky[std::string(toks[i].text)] =
                                Target{cont, li, true};
                    }
                    continue;
                }
            }
            if (risky.empty())
                continue;

            // Scheduled lambdas inside this body.
            for (std::size_t i = fn.bodyBegin + 1;
                 i + 1 < fn.bodyEnd; ++i) {
                if (!isIdent(toks[i], "schedule") ||
                    !(isPunct(toks[i - 1], ".") ||
                      isPunct(toks[i - 1], "->")) ||
                    !isPunct(toks[i + 1], "("))
                    continue;
                const std::size_t close = matchClose(toks, i + 1);
                if (close >= toks.size() || close > fn.bodyEnd)
                    continue;
                for (const auto &[aFirst, aLast] :
                     splitArgs(toks, i + 1, close)) {
                    if (aFirst >= aLast || !isPunct(toks[aFirst], "["))
                        continue;
                    const std::size_t bClose =
                        matchClose(toks, aFirst);
                    if (bClose >= toks.size() || bClose > aLast)
                        continue;
                    checkLambda(project, file, cfg, risky, toks,
                                aFirst, bClose, aLast, out);
                }
            }
        }
    }

  private:
    template <typename RiskyMap>
    void
    checkLambda(const Project &, const FileContext &file,
                const Cfg &cfg, const RiskyMap &risky,
                const std::vector<Token> &toks, std::size_t bOpen,
                std::size_t bClose, std::size_t argLast,
                std::vector<Finding> &out) const
    {
        auto report = [&](const Token &at, const std::string &var,
                          const auto &target) {
            const CfgLocal &local = cfg.locals[target.localIdx];
            const int declLine = toks[local.declTok].line;
            const int closeLine =
                cfg.scopes[local.scope].closeTok < toks.size()
                    ? toks[cfg.scopes[local.scope].closeTok].line
                    : declLine;
            std::vector<FlowStep> flow;
            pushStep(flow, file.relPath, declLine,
                     "stack local '" + target.local +
                         "' declared here");
            pushStep(flow, file.relPath, at.line,
                     std::string(target.iterator ? "iterator into"
                                                 : "pointer to") +
                         " '" + target.local +
                         "' captured by the scheduled callback");
            pushStep(flow, file.relPath, closeLine,
                     "'" + target.local +
                         "' goes out of scope here, before the "
                         "callback can fire");
            std::string msg = "scheduled callback captures '";
            msg += var;
            msg += target.iterator
                       ? "', an iterator into stack local '"
                       : "', a pointer to stack local '";
            msg += target.local;
            msg += "' (dies at line ";
            msg += std::to_string(closeLine);
            msg += "): the callback fires after the scope has exited; "
                   "capture the value itself or use a stable handle";
            add(out, "callback-lifetime", file.relPath, at.line,
                at.col, std::move(msg), std::move(flow));
        };

        bool defaultCopy = false;
        std::vector<std::size_t> entriesChecked;
        for (const auto &[cFirst, cLast] :
             splitArgs(toks, bOpen, bClose)) {
            if (cFirst >= cLast)
                continue;
            const std::size_t n = cLast - cFirst;
            if (n == 1 && isPunct(toks[cFirst], "=")) {
                defaultCopy = true;
                continue;
            }
            if (toks[cFirst].kind != TokKind::Ident)
                continue; // & / &name / this handled by callback-capture
            const std::string name(toks[cFirst].text);
            if (n >= 3 && isPunct(toks[cFirst + 1], "=")) {
                // Init capture: [q = &x] or [q = p] or [q = it].
                if (isPunct(toks[cFirst + 2], "&") &&
                    cFirst + 3 < cLast &&
                    toks[cFirst + 3].kind == TokKind::Ident) {
                    const std::string target(toks[cFirst + 3].text);
                    const std::size_t li =
                        cfg.localAt(target, cFirst + 3);
                    if (li < cfg.locals.size() &&
                        !cfg.locals[li].isStatic) {
                        struct
                        {
                            std::string local;
                            std::size_t localIdx;
                            bool iterator;
                        } t{target, li, false};
                        report(toks[cFirst], name, t);
                    }
                    continue;
                }
                if (toks[cFirst + 2].kind == TokKind::Ident) {
                    const auto it = risky.find(
                        std::string(toks[cFirst + 2].text));
                    if (it != risky.end())
                        report(toks[cFirst], name, it->second);
                }
                continue;
            }
            // Plain copy capture [p].
            const auto it = risky.find(name);
            if (it != risky.end())
                report(toks[cFirst], name, it->second);
        }
        if (defaultCopy) {
            // [=]: any use of a risky variable inside the body counts
            // as a capture. The body spans (bClose..argLast) once the
            // parameter list / braces start; scan the whole tail.
            for (std::size_t k = bClose + 1; k < argLast; ++k) {
                if (toks[k].kind != TokKind::Ident)
                    continue;
                const auto it = risky.find(std::string(toks[k].text));
                if (it != risky.end()) {
                    report(toks[k], std::string(toks[k].text),
                           it->second);
                    break;
                }
            }
        }
    }
};

// ---------------------------------------------------------------------
// Rule: ff-stat-parity
// ---------------------------------------------------------------------

class FfStatParityRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"ff-stat-parity",
                "every stat written under an ff(tick) root's hot call "
                "tree must also be written under the class's ff(skip) "
                "fast-forward counterpart, or carry an "
                "'ff-exempt -- why' annotation — otherwise "
                "fast-forwarded intervals silently under-count"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        if (!project.flow)
            return;
        const FlowIndex &fi = *project.flow;
        const DeclIndex &decls = project.decls;
        const std::size_t fileIdx = fileIndexOf(project, file);

        for (const std::size_t tickFn : functionsIn(project, fileIdx)) {
            const FunctionDecl &fn = decls.functions[tickFn];
            if (!annotated(file, fn.line, "ff(tick)"))
                continue;

            // Find the class's ff(skip) counterpart.
            std::size_t skipFn = decls.functions.size();
            for (std::size_t g = 0; g < decls.functions.size(); ++g) {
                const FunctionDecl &cand = decls.functions[g];
                if (!cand.hasBody || cand.cls != fn.cls || g == tickFn)
                    continue;
                if (annotated(*project.files[cand.fileIndex],
                              cand.line, "ff(skip)")) {
                    skipFn = g;
                    break;
                }
            }
            if (skipFn == decls.functions.size()) {
                std::string msg = "'";
                msg += qualName(fn);
                msg += "' is annotated ff(tick) but class '";
                msg += fn.cls;
                msg += "' has no ff(skip) counterpart: annotate the "
                       "fast-forward path so stat parity can be "
                       "checked";
                add(out, info().id, file.relPath, fn.line, 0,
                    std::move(msg));
                continue;
            }

            // Skip tree: unrestricted BFS collecting the classes it
            // touches and every stat it writes.
            std::set<std::string> skipClasses{fn.cls};
            std::set<std::pair<std::string, std::string>> skipWrites;
            bfs(project, fi, skipFn, nullptr, &skipClasses,
                &skipWrites, nullptr);

            // Tick tree: descend only into callees whose class the
            // skip path also touches (or free functions) — engines the
            // skip path never models (caches, TLBs) have no parity
            // obligation.
            std::map<std::pair<std::string, std::string>, WriteSite>
                tickWrites;
            bfs(project, fi, tickFn, &skipClasses, nullptr, nullptr,
                &tickWrites);

            for (const auto &[key, site] : tickWrites) {
                if (site.exempt || site.checkPrefixed ||
                    skipWrites.count(key))
                    continue;
                const FunctionDecl &writer =
                    decls.functions[site.fnIdx];
                const std::string &writerFile =
                    project.files[writer.fileIndex]->relPath;
                std::vector<FlowStep> flow;
                pushStep(flow, file.relPath, fn.line,
                         "ff(tick) root '" + qualName(fn) + "'");
                for (const auto &[hopFile, hopLine, hopName] :
                     site.chain)
                    pushStep(flow, hopFile, hopLine,
                             "calls '" + hopName + "'");
                pushStep(flow, writerFile, site.line,
                         "writes stat '" + key.second + "'");
                std::string msg = "stat '";
                msg += key.first.empty()
                           ? key.second
                           : key.first + "::" + key.second;
                msg += "' is written under '";
                msg += qualName(fn);
                msg += "' but not under the ff(skip) path '";
                msg += qualName(decls.functions[skipFn]);
                msg += "': update the fast-forward path or annotate "
                       "the write with '// spburst-lint: ff-exempt "
                       "-- <why>'";
                add(out, info().id, writerFile, site.line, 0,
                    std::move(msg), std::move(flow));
            }
        }
    }

  private:
    struct WriteSite
    {
        std::size_t fnIdx = 0;
        int line = 0;
        bool exempt = false;
        bool checkPrefixed = false;
        /** (file, line, callee-name) hops from the root. */
        std::vector<std::tuple<std::string, int, std::string>> chain;
    };

    /** BFS over the resolved call graph from @p root. When
     *  @p allowedClasses is non-null, only callees whose class is in
     *  it (or free functions) are entered. Collects touched classes,
     *  the (class, key) set of writes, and/or write sites with their
     *  call chains. */
    void
    bfs(const Project &project, const FlowIndex &fi, std::size_t root,
        const std::set<std::string> *allowedClasses,
        std::set<std::string> *classesOut,
        std::set<std::pair<std::string, std::string>> *writesOut,
        std::map<std::pair<std::string, std::string>, WriteSite>
            *sitesOut) const
    {
        const DeclIndex &decls = project.decls;
        std::set<std::size_t> visited{root};
        std::deque<std::pair<
            std::size_t,
            std::vector<std::tuple<std::string, int, std::string>>>>
            queue;
        queue.push_back({root, {}});
        while (!queue.empty()) {
            const auto [v, chain] = queue.front();
            queue.pop_front();
            const FunctionDecl &vfn = decls.functions[v];
            if (classesOut && !vfn.cls.empty())
                classesOut->insert(vfn.cls);
            for (const StatWriteInfo &w : fi.fn[v].statWrites) {
                const std::pair<std::string, std::string> key{
                    vfn.cls, w.key};
                if (writesOut)
                    writesOut->insert(key);
                // Keep the first write site per key, unless it is
                // exempt and this one is not: one annotated write
                // must not hide an unannotated one of the same stat.
                if (sitesOut) {
                    const auto it = sitesOut->find(key);
                    if (it != sitesOut->end() &&
                        !(it->second.exempt && !w.exempt))
                        continue;
                    WriteSite site;
                    site.fnIdx = v;
                    site.line = w.line;
                    site.exempt = w.exempt;
                    site.checkPrefixed = w.checkPrefixed;
                    site.chain = chain;
                    (*sitesOut)[key] = std::move(site);
                }
            }
            for (const CallSite &cs : fi.fn[v].calls) {
                const std::size_t c = fi.resolve(project, v, cs);
                if (c >= fi.fn.size() || visited.count(c))
                    continue;
                const FunctionDecl &cfn = decls.functions[c];
                if (allowedClasses && !cfn.cls.empty() &&
                    allowedClasses->count(cfn.cls) == 0)
                    continue;
                visited.insert(c);
                auto nextChain = chain;
                if (nextChain.size() < 8)
                    nextChain.emplace_back(
                        project.files[vfn.fileIndex]->relPath,
                        cs.line, qualName(cfn));
                queue.push_back({c, std::move(nextChain)});
            }
        }
    }
};

// ---------------------------------------------------------------------
// Rule: check-purity-flow
// ---------------------------------------------------------------------

class CheckPurityFlowRule final : public Rule
{
  public:
    RuleInfo
    info() const override
    {
        return {"check-purity-flow",
                "a call inside SPBURST_CHECK / SPBURST_CHECK_SLOW "
                "whose callee transitively writes architectural state "
                "or non-check stats makes checked and unchecked runs "
                "diverge (src/check/ helpers are the check domain and "
                "exempt)"};
    }

    void
    check(const Project &project, const FileContext &file,
          std::vector<Finding> &out) const override
    {
        if (!project.flow)
            return;
        const FlowIndex &fi = *project.flow;
        const std::size_t fileIdx = fileIndexOf(project, file);
        const std::vector<Token> &toks = file.lex.tokens;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!(isIdent(toks[i], "SPBURST_CHECK") ||
                  isIdent(toks[i], "SPBURST_CHECK_SLOW")) ||
                !isPunct(toks[i + 1], "("))
                continue;
            const std::size_t close = matchClose(toks, i + 1);
            if (close >= toks.size())
                continue;
            const std::size_t caller =
                enclosingFn(project, fileIdx, i);
            if (caller >= fi.fn.size())
                continue;
            for (std::size_t k = i + 2; k < close; ++k) {
                if (toks[k].kind != TokKind::Ident ||
                    k + 1 >= close || !isPunct(toks[k + 1], "("))
                    continue;
                CallSite cs;
                cs.name = std::string(toks[k].text);
                cs.line = toks[k].line;
                if (k >= 2 && (isPunct(toks[k - 1], ".") ||
                               isPunct(toks[k - 1], "->")) &&
                    toks[k - 2].kind == TokKind::Ident)
                    cs.recv = std::string(toks[k - 2].text);
                if (k >= 2 && isPunct(toks[k - 1], "::") &&
                    toks[k - 2].kind == TokKind::Ident)
                    cs.recvClass = std::string(toks[k - 2].text);
                const std::size_t c =
                    fi.resolve(project, caller, cs);
                if (c >= fi.fn.size() || fi.checkDomain[c] ||
                    !fi.impure[c])
                    continue;
                std::vector<FlowStep> flow;
                pushStep(flow, file.relPath, toks[k].line,
                         "called from inside " +
                             std::string(toks[i].text));
                for (const FlowStep &st : fi.impureSteps[c])
                    pushStep(flow, st.file, st.line, st.note);
                std::string msg = "'";
                msg += cs.name;
                msg += "' is called inside ";
                msg += std::string(toks[i].text);
                msg += " but (transitively) mutates simulated state: "
                       "the check must be side-effect-free so "
                       "--check=off runs are bit-identical";
                add(out, info().id, file.relPath, toks[k].line,
                    toks[k].col, std::move(msg), std::move(flow));
            }
        }
    }
};

} // namespace

const std::vector<const Rule *> &
flowRules()
{
    static const NondeterminismTaintRule taint;
    static const CallbackLifetimeRule lifetime;
    static const FfStatParityRule parity;
    static const CheckPurityFlowRule purity;
    static const std::vector<const Rule *> rules{&taint, &lifetime,
                                                &parity, &purity};
    return rules;
}

} // namespace spburst::lint
