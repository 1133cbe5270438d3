#include "analysis/engine.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/project.hh"
#include "exp/task_pool.hh"

namespace spburst::lint
{

namespace
{

bool
findingLess(const Finding &a, const Finding &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.col != b.col)
        return a.col < b.col;
    return a.ruleId < b.ruleId;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
escapeGithub(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%')
            out += "%25";
        else if (c == '\n')
            out += "%0A";
        else if (c == '\r')
            out += "%0D";
        else
            out += c;
    }
    return out;
}

// ---------------------------------------------------------------------
// Incremental result cache
// ---------------------------------------------------------------------

/** Bump when rule semantics or the cache format change: a stale epoch
 *  must read as a miss, never as yesterday's findings. */
constexpr int kCacheEpoch = 5;

std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Cache key over everything that determines the findings: epoch, rule
 *  filter, staleness reporting, and every file's relative path and
 *  content hash. The rules are project-wide (indices span files), so
 *  the key is honest only for the whole file set at once. */
std::string
cacheKey(const Options &options, const std::vector<std::string> &rels,
         const std::vector<std::string> &sources)
{
    std::ostringstream key;
    key << "epoch=" << kCacheEpoch << '\n';
    std::vector<std::string> rules = options.onlyRules;
    std::sort(rules.begin(), rules.end());
    key << "rules=";
    for (const std::string &r : rules)
        key << r << ',';
    key << "\nunused=" << (options.unusedSuppressions ? 1 : 0) << '\n';
    for (std::size_t i = 0; i < rels.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(fnv1a(sources[i])));
        key << rels[i] << ' ' << buf << '\n';
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(key.str())));
    return buf;
}

std::string
escapeField(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\t')
            out += "\\t";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
unescapeField(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
        } else if (s[i + 1] == 't') {
            out += '\t';
            ++i;
        } else if (s[i + 1] == 'n') {
            out += '\n';
            ++i;
        } else {
            out += s[i + 1];
            ++i;
        }
    }
    return out;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/** Load the v2 cache. The findings section replays only on a
 *  whole-run key match (returned); the per-file summary section is
 *  harvested into @p summaries regardless of the key, because a single
 *  changed file invalidates the findings but leaves every other
 *  file's local summary reusable. */
bool
loadCache(const std::string &path, const std::string &key,
          RunResult &result, SummaryCache &summaries)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line) || line != "spburst-lint-cache v2")
        return false;
    if (!std::getline(in, line) || line.rfind("key ", 0) != 0)
        return false;
    const bool keyMatch = line == "key " + key;
    std::vector<Finding> findings;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto f = splitTabs(line);
        if (f[0] == "finding" && f.size() >= 7) {
            Finding fd;
            fd.ruleId = unescapeField(f[1]);
            fd.file = unescapeField(f[2]);
            fd.line = std::atoi(f[3].c_str());
            fd.col = std::atoi(f[4].c_str());
            fd.message = unescapeField(f[5]);
            fd.fixDescription = unescapeField(f[6]);
            findings.push_back(std::move(fd));
        } else if (f[0] == "flow" && f.size() >= 4 &&
                   !findings.empty()) {
            FlowStep s;
            s.file = unescapeField(f[1]);
            s.line = std::atoi(f[2].c_str());
            s.note = unescapeField(f[3]);
            findings.back().flow.push_back(std::move(s));
        } else if (f[0] == "edit" && f.size() >= 4 &&
                   !findings.empty()) {
            FixEdit e;
            e.offset = static_cast<std::size_t>(
                std::strtoull(f[1].c_str(), nullptr, 10));
            e.length = static_cast<std::size_t>(
                std::strtoull(f[2].c_str(), nullptr, 10));
            e.text = unescapeField(f[3]);
            findings.back().fixEdits.push_back(std::move(e));
        } else if (f[0] == "end") {
            break;
        } else {
            return false; // unknown record: treat as corrupt
        }
    }
    // A key match replays the stored findings directly — the summary
    // section is only needed on a partial miss, so skip parsing it on
    // the fully-warm path.
    if (keyMatch) {
        result.findings = std::move(findings);
        return true;
    }
    // Optional summary section, usable only at the current format
    // version (a version bump reads as a clean miss).
    if (std::getline(in, line) &&
        line == "summaries v" + std::to_string(kSummaryVersion)) {
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            const auto f = splitTabs(line);
            if (f[0] == "summary" && f.size() >= 4) {
                SummaryCacheEntry e;
                e.hash = f[2];
                e.blob = unescapeField(f[3]);
                summaries[unescapeField(f[1])] = std::move(e);
            } else {
                break; // "end" or junk: summaries are best-effort
            }
        }
    }
    return false; // findings not reusable (summaries may be)
}

void
saveCache(const std::string &path, const std::string &key,
          const RunResult &result, const SummaryCache &summaries)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return; // cache is an optimization: failure to persist is fine
    out << "spburst-lint-cache v2\n"
        << "key " << key << '\n';
    for (const Finding &f : result.findings) {
        out << "finding\t" << escapeField(f.ruleId) << '\t'
            << escapeField(f.file) << '\t' << f.line << '\t' << f.col
            << '\t' << escapeField(f.message) << '\t'
            << escapeField(f.fixDescription) << '\n';
        for (const FlowStep &s : f.flow)
            out << "flow\t" << escapeField(s.file) << '\t' << s.line
                << '\t' << escapeField(s.note) << '\n';
        for (const FixEdit &e : f.fixEdits)
            out << "edit\t" << e.offset << '\t' << e.length << '\t'
                << escapeField(e.text) << '\n';
    }
    out << "end\n";
    // Per-file dataflow summaries: only files present in this run are
    // written, so entries for deleted files are pruned here rather
    // than lingering until the next epoch bump.
    out << "summaries v" << kSummaryVersion << '\n';
    for (const auto &[rel, entry] : summaries)
        out << "summary\t" << escapeField(rel) << '\t' << entry.hash
            << '\t' << escapeField(entry.blob) << '\n';
    out << "end\n";
}

} // namespace

RunResult
runLint(const Options &options)
{
    RunResult result;

    // Read every source first (in parallel): a cache hit must never
    // pay for lexing, only for I/O and hashing.
    const std::size_t n = options.files.size();
    std::vector<std::string> sources(n);
    std::vector<char> readable(n, 0);
    exp::parallelFor(options.jobs, n, [&](std::size_t i) {
        std::ifstream in(options.files[i], std::ios::binary);
        if (!in)
            return;
        std::ostringstream buf;
        buf << in.rdbuf();
        sources[i] = buf.str();
        readable[i] = 1;
    });
    std::vector<std::size_t> live;
    std::vector<std::string> rels;
    for (std::size_t i = 0; i < n; ++i) {
        if (!readable[i]) {
            result.errors.push_back("cannot read " + options.files[i]);
            continue;
        }
        live.push_back(i);
    }
    result.filesAnalyzed = live.size();

    std::string key;
    SummaryCache cachedSummaries;
    if (!options.cachePath.empty() && result.errors.empty()) {
        for (const std::size_t i : live) {
            auto probe = makeFile(options.files[i], options.root, "");
            rels.push_back(probe->relPath);
        }
        std::vector<std::string> liveSources;
        liveSources.reserve(live.size());
        for (const std::size_t i : live)
            liveSources.push_back(sources[i]);
        key = cacheKey(options, rels, liveSources);
        if (loadCache(options.cachePath, key, result,
                      cachedSummaries)) {
            result.fromCache = true;
            return result;
        }
    }

    Project project;
    {
        std::vector<std::unique_ptr<FileContext>> slots(live.size());
        exp::parallelFor(options.jobs, live.size(), [&](std::size_t k) {
            const std::size_t i = live[k];
            slots[k] = makeFile(options.files[i], options.root,
                                std::move(sources[i]));
        });
        for (auto &slot : slots)
            project.files.push_back(std::move(slot));
    }
    SummaryCache freshSummaries;
    buildIndices(project,
                 cachedSummaries.empty() ? nullptr : &cachedSummaries,
                 options.jobs,
                 options.cachePath.empty() ? nullptr : &freshSummaries);
    if (project.flow) {
        result.summariesReused = project.flow->summariesReused;
        result.summariesTotal = project.flow->summariesTotal;
    }

    const std::set<std::string> only(options.onlyRules.begin(),
                                     options.onlyRules.end());
    std::vector<const Rule *> active;
    for (const Rule *rule : allRules()) {
        if (only.empty() || only.count(std::string(rule->info().id)))
            active.push_back(rule);
    }
    // Per-file rule passes in parallel; concatenation in file order
    // keeps the output independent of the thread count.
    std::vector<std::vector<Finding>> perFile(project.files.size());
    exp::parallelFor(options.jobs, project.files.size(),
                     [&](std::size_t i) {
                         for (const Rule *rule : active)
                             rule->check(project, *project.files[i],
                                         perFile[i]);
                     });
    std::vector<Finding> raw;
    for (auto &fs : perFile)
        for (Finding &f : fs)
            raw.push_back(std::move(f));

    // Apply per-line suppressions, tracking use so stale ones surface.
    for (Finding &f : raw) {
        bool suppressed = false;
        for (const auto &file : project.files) {
            if (file->relPath != f.file)
                continue;
            for (Suppression &s : file->suppressions) {
                if (s.targetLine == f.line &&
                    s.rules.count(f.ruleId) != 0) {
                    s.used = true;
                    suppressed = true;
                }
            }
            break;
        }
        if (!suppressed)
            result.findings.push_back(std::move(f));
    }

    if (options.unusedSuppressions &&
        (only.empty() ||
         only.count(std::string(kUnusedSuppressionId)) != 0)) {
        for (const auto &file : project.files) {
            for (const Suppression &s : file->suppressions) {
                if (s.used)
                    continue;
                std::string rules;
                for (const std::string &r : s.rules)
                    rules += (rules.empty() ? "" : ", ") + r;
                Finding f;
                f.ruleId = std::string(kUnusedSuppressionId);
                f.file = file->relPath;
                f.line = s.commentLine;
                f.col = 1;
                f.message = "suppression allow(" + rules +
                            ") matches no finding on its target line; "
                            "remove the stale comment";
                result.findings.push_back(std::move(f));
            }
        }
    }

    std::sort(result.findings.begin(), result.findings.end(),
              findingLess);
    if (!options.cachePath.empty() && result.errors.empty())
        saveCache(options.cachePath, key, result, freshSummaries);
    return result;
}

std::size_t
applyFixes(const RunResult &result, const std::string &root,
           std::vector<std::string> &log)
{
    // Gather edits per file, apply back-to-front so earlier offsets
    // stay valid, and drop any edit overlapping one already applied.
    std::map<std::string, std::vector<FixEdit>> byFile;
    for (const Finding &f : result.findings)
        for (const FixEdit &e : f.fixEdits)
            byFile[f.file].push_back(e);
    std::size_t applied = 0;
    for (auto &[rel, edits] : byFile) {
        const std::string path = root.empty() ? rel : root + "/" + rel;
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            log.push_back("fix: cannot read " + path);
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string text = buf.str();
        std::sort(edits.begin(), edits.end(),
                  [](const FixEdit &a, const FixEdit &b) {
                      return a.offset > b.offset;
                  });
        std::size_t lastStart = text.size() + 1;
        std::size_t count = 0;
        for (const FixEdit &e : edits) {
            if (e.offset + e.length > text.size() ||
                e.offset + e.length > lastStart)
                continue; // out of range or overlaps a prior edit
            text.replace(e.offset, e.length, e.text);
            lastStart = e.offset;
            ++count;
        }
        if (count == 0)
            continue;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            log.push_back("fix: cannot write " + path);
            continue;
        }
        out << text;
        log.push_back("fix: " + rel + ": " + std::to_string(count) +
                      " edit(s) applied");
        applied += count;
    }
    return applied;
}

std::string
renderText(const RunResult &result)
{
    std::ostringstream out;
    for (const Finding &f : result.findings) {
        out << f.file << ':' << f.line << ':' << f.col << ": error: ["
            << f.ruleId << "] " << f.message << '\n';
    }
    return out.str();
}

std::string
renderSarif(const RunResult &result)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"spburst-lint\",\n"
        << "          \"informationUri\": "
           "\"https://github.com/spburst/spburst\",\n"
        << "          \"rules\": [\n";
    bool first = true;
    auto emitRule = [&](std::string_view id, std::string_view summary) {
        if (!first)
            out << ",\n";
        first = false;
        out << "            {\n"
            << "              \"id\": \"" << id << "\",\n"
            << "              \"shortDescription\": { \"text\": \""
            << escapeJson(std::string(summary)) << "\" }\n"
            << "            }";
    };
    for (const Rule *rule : allRules())
        emitRule(rule->info().id, rule->info().summary);
    emitRule(kUnusedSuppressionId,
             "a spburst-lint: allow(...) comment that silences nothing");
    out << "\n          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        out << "        {\n"
            << "          \"ruleId\": \"" << escapeJson(f.ruleId)
            << "\",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": { \"text\": \""
            << escapeJson(f.message) << "\" },\n";
        if (!f.fixEdits.empty()) {
            out << "          \"fixes\": [\n"
                << "            {\n"
                << "              \"description\": { \"text\": \""
                << escapeJson(f.fixDescription) << "\" },\n"
                << "              \"artifactChanges\": [\n"
                << "                {\n"
                << "                  \"artifactLocation\": { \"uri\": "
                   "\""
                << escapeJson(f.file) << "\" },\n"
                << "                  \"replacements\": [\n";
            for (std::size_t k = 0; k < f.fixEdits.size(); ++k) {
                const FixEdit &e = f.fixEdits[k];
                out << "                    { \"deletedRegion\": { "
                       "\"charOffset\": "
                    << e.offset << ", \"charLength\": " << e.length
                    << " }, \"insertedContent\": { \"text\": \""
                    << escapeJson(e.text) << "\" } }"
                    << (k + 1 < f.fixEdits.size() ? "," : "") << "\n";
            }
            out << "                  ]\n"
                << "                }\n"
                << "              ]\n"
                << "            }\n"
                << "          ],\n";
        }
        if (!f.flow.empty()) {
            out << "          \"codeFlows\": [\n"
                << "            { \"threadFlows\": [ { \"locations\": "
                   "[\n";
            for (std::size_t k = 0; k < f.flow.size(); ++k) {
                const FlowStep &s = f.flow[k];
                out << "              { \"location\": { "
                       "\"physicalLocation\": { \"artifactLocation\": "
                       "{ \"uri\": \""
                    << escapeJson(s.file)
                    << "\" }, \"region\": { \"startLine\": " << s.line
                    << " } }, \"message\": { \"text\": \""
                    << escapeJson(s.note) << "\" } } }"
                    << (k + 1 < f.flow.size() ? "," : "") << "\n";
            }
            out << "            ] } ] }\n"
                << "          ],\n";
        }
        out << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": { \"uri\": \""
            << escapeJson(f.file) << "\" },\n"
            << "                \"region\": { \"startLine\": " << f.line
            << ", \"startColumn\": " << f.col << " }\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }" << (i + 1 < result.findings.size() ? "," : "")
            << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

std::string
renderGithub(const RunResult &result)
{
    std::ostringstream out;
    for (const Finding &f : result.findings) {
        out << "::error file=" << f.file << ",line=" << f.line
            << ",col=" << f.col << "::[" << f.ruleId << "] "
            << escapeGithub(f.message) << '\n';
    }
    return out.str();
}

} // namespace spburst::lint
