#include "store/reader.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "store/errors.h"
#include "util/checksum.h"
#include "util/json.h"
#include "util/strings.h"

namespace treadmill {
namespace store {

namespace fs = std::filesystem;

namespace {

const char *
encodingName(Encoding e)
{
    switch (e) {
    case Encoding::F64: return "f64";
    case Encoding::U64: return "u64";
    case Encoding::Bytes: return "bytes";
    }
    return "?";
}

std::string
runFileName(std::uint64_t seq)
{
    return strprintf("run-%06llu%s",
                     static_cast<unsigned long long>(seq), kRunSuffix);
}

} // namespace

RunReader::RunReader(const std::string &path) : file(path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw TruncatedError("cannot open run file: " + path);
    const std::streamoff size = in.tellg();
    in.seekg(0);
    buffer.assign((static_cast<std::size_t>(size) + 7) / 8, 0);
    in.read(reinterpret_cast<char *>(buffer.data()), size);
    if (!in.good())
        throw TruncatedError("short read from " + path);
    const std::size_t bytes = static_cast<std::size_t>(size);

    if (bytes < sizeof(FileHeader))
        throw TruncatedError(strprintf(
            "%s: %zu bytes is smaller than the %zu-byte header",
            path.c_str(), bytes, sizeof(FileHeader)));
    FileHeader header;
    std::memcpy(static_cast<void *>(&header), buffer.data(),
                sizeof header);
    if (header.magic != kRunMagic)
        throw FormatError(path + ": not a run record file (bad magic)");
    if (header.version != kRunVersion)
        throw VersionError(strprintf(
            "%s: schema version %u, this build reads version %u",
            path.c_str(), header.version, kRunVersion));
    seq = header.runSeq;

    const std::size_t tableBytes =
        sizeof(FileHeader) +
        static_cast<std::size_t>(header.columnCount) *
            sizeof(ColumnDesc) +
        8;
    if (bytes < tableBytes)
        throw TruncatedError(strprintf(
            "%s: descriptor table for %u columns needs %zu bytes, "
            "file has %zu",
            path.c_str(), header.columnCount, tableBytes, bytes));

    const char *raw = reinterpret_cast<const char *>(buffer.data());
    std::uint32_t storedTableCrc = 0;
    std::memcpy(&storedTableCrc, raw + tableBytes - 8,
                sizeof storedTableCrc);
    const std::uint32_t actualTableCrc = crc32(raw, tableBytes - 8);
    if (storedTableCrc != actualTableCrc)
        throw ChecksumError(strprintf(
            "%s: descriptor table CRC mismatch (stored %08x, "
            "computed %08x)",
            path.c_str(), storedTableCrc, actualTableCrc));

    columns.resize(header.columnCount);
    std::memcpy(static_cast<void *>(columns.data()),
                raw + sizeof(FileHeader),
                columns.size() * sizeof(ColumnDesc));

    std::uint32_t lastId = 0;
    for (const ColumnDesc &col : columns) {
        if (col.id <= lastId)
            throw FormatError(strprintf(
                "%s: column ids not strictly ascending at id %u",
                path.c_str(), col.id));
        lastId = col.id;
        if (col.encoding >
            static_cast<std::uint32_t>(Encoding::Bytes))
            throw FormatError(
                strprintf("%s: column %u has unknown encoding %u",
                          path.c_str(), col.id, col.encoding));
        const Encoding enc = static_cast<Encoding>(col.encoding);
        if (enc != Encoding::Bytes && col.offset % 8 != 0)
            throw FormatError(strprintf(
                "%s: numeric column %u at misaligned offset %llu",
                path.c_str(), col.id,
                static_cast<unsigned long long>(col.offset)));
        const std::uint64_t payload = payloadBytes(enc, col.count);
        if (col.offset < tableBytes ||
            col.offset + payload > bytes)
            throw TruncatedError(strprintf(
                "%s: column %u [%llu, +%llu) reaches past the "
                "%zu-byte file",
                path.c_str(), col.id,
                static_cast<unsigned long long>(col.offset),
                static_cast<unsigned long long>(payload), bytes));
        const std::uint32_t actual =
            crc32(raw + col.offset,
                  static_cast<std::size_t>(payload));
        if (actual != col.crc)
            throw ChecksumError(strprintf(
                "%s: column %u payload CRC mismatch (stored %08x, "
                "computed %08x)",
                path.c_str(), col.id, col.crc, actual));
    }
}

bool
RunReader::has(ColumnId id) const
{
    for (const ColumnDesc &col : columns)
        if (col.id == static_cast<std::uint32_t>(id))
            return true;
    return false;
}

const ColumnDesc &
RunReader::find(ColumnId id, Encoding encoding) const
{
    for (const ColumnDesc &col : columns) {
        if (col.id != static_cast<std::uint32_t>(id))
            continue;
        if (col.encoding != static_cast<std::uint32_t>(encoding))
            throw FormatError(strprintf(
                "%s: column %u is %s, requested as %s", file.c_str(),
                col.id,
                encodingName(static_cast<Encoding>(col.encoding)),
                encodingName(encoding)));
        return col;
    }
    throw FormatError(strprintf("%s: column %u absent", file.c_str(),
                                static_cast<std::uint32_t>(id)));
}

ColumnView<double>
RunReader::doubles(ColumnId id) const
{
    const ColumnDesc &col = find(id, Encoding::F64);
    const char *raw = reinterpret_cast<const char *>(buffer.data());
    return {reinterpret_cast<const double *>(raw + col.offset),
            static_cast<std::size_t>(col.count)};
}

ColumnView<std::uint64_t>
RunReader::u64s(ColumnId id) const
{
    const ColumnDesc &col = find(id, Encoding::U64);
    const char *raw = reinterpret_cast<const char *>(buffer.data());
    return {reinterpret_cast<const std::uint64_t *>(raw + col.offset),
            static_cast<std::size_t>(col.count)};
}

const char *
RunReader::bytesData(ColumnId id, std::size_t &size) const
{
    const ColumnDesc &col = find(id, Encoding::Bytes);
    size = static_cast<std::size_t>(col.count);
    return reinterpret_cast<const char *>(buffer.data()) + col.offset;
}

RunRecord
RunReader::record() const
{
    // tmlint:cold: decodes one archived run for verify/refit; no
    // simulation path reads an archive
    RunRecord rec;
    rec.seed = u64s(ColumnId::Seed)[0];
    rec.configDigest = u64s(ColumnId::ConfigDigest)[0];
    rec.factorLevels = doubles(ColumnId::FactorLevels).toVector();
    rec.quantileTaus = doubles(ColumnId::QuantileTaus).toVector();
    rec.quantileUs = doubles(ColumnId::QuantileValues).toVector();
    rec.reservoir = doubles(ColumnId::Reservoir).toVector();
    rec.reservoirSeen = u64s(ColumnId::ReservoirSeen)[0];
    rec.reservoirCapacity = u64s(ColumnId::ReservoirCapacity)[0];
    const ColumnView<double> scalars = doubles(ColumnId::Scalars);
    if (scalars.size() != kScalarCount)
        throw FormatError(strprintf(
            "%s: scalar column has %zu entries, expected %llu",
            file.c_str(), scalars.size(),
            static_cast<unsigned long long>(kScalarCount)));
    rec.targetRps = scalars[0];
    rec.achievedRps = scalars[1];
    rec.serverUtilization = scalars[2];
    rec.simulatedSeconds = scalars[3];
    std::size_t metricsSize = 0;
    const char *metrics = bytesData(ColumnId::MetricsJson, metricsSize);
    rec.metricsJson.assign(metrics, metricsSize);
    if (has(ColumnId::ProvenanceTaus)) {
        const auto taus = doubles(ColumnId::ProvenanceTaus);
        const auto kinds = u64s(ColumnId::ProvenanceKinds);
        const auto means = doubles(ColumnId::ProvenanceMeans);
        const auto shares = doubles(ColumnId::ProvenanceShares);
        if (kinds.size() != taus.size() ||
            means.size() != taus.size() ||
            shares.size() != taus.size())
            throw FormatError(file +
                              ": ragged provenance columns");
        rec.provenance.reserve(taus.size());
        for (std::size_t i = 0; i < taus.size(); ++i)
            rec.provenance.push_back(
                {taus[i], kinds[i], means[i], shares[i]});
    }
    return rec;
}

StudyReader::StudyReader(const std::string &directory) : dir(directory)
{
    const fs::path manifest = fs::path(dir) / kManifestName;
    if (!fs::exists(manifest))
        throw FormatError("no " + std::string(kManifestName) +
                          " in study directory " + dir);
    json::Value doc;
    try {
        doc = json::parseFile(manifest.string());
    } catch (const Error &e) {
        throw FormatError(manifest.string() +
                          ": malformed manifest: " + e.what());
    }
    const std::string schema = doc.stringOr("schema", "");
    if (schema != kManifestSchema)
        throw VersionError(manifest.string() + ": manifest schema '" +
                           schema + "', this build reads '" +
                           kManifestSchema + "'");
    studyMeta.name = doc.stringOr("study", "");
    for (const json::Value &f : doc.at("factors").asArray())
        studyMeta.factors.push_back(f.asString());
    for (const json::Value &q : doc.at("quantiles").asArray())
        studyMeta.quantiles.push_back(q.asNumber());
    studyMeta.runCount =
        static_cast<std::uint64_t>(doc.intOr("runs", 0));
    const std::string digest = doc.stringOr("config_digest", "0x0");
    studyMeta.configDigest =
        std::strtoull(digest.c_str(), nullptr, 16);
}

std::string
StudyReader::runPath(std::uint64_t seq) const
{
    return (fs::path(dir) / kRunDirName / runFileName(seq)).string();
}

RunReader
StudyReader::openRun(std::uint64_t seq) const
{
    const std::string path = runPath(seq);
    if (!fs::exists(path))
        throw TruncatedError(
            path + ": run file missing (interrupted write?)");
    RunReader reader(path);
    if (reader.runSeq() != seq)
        throw FormatError(strprintf(
            "%s: header stamps seq %llu, file name says %llu",
            path.c_str(),
            static_cast<unsigned long long>(reader.runSeq()),
            static_cast<unsigned long long>(seq)));
    return reader;
}

std::vector<VerifyProblem>
StudyReader::verify() const
{
    std::vector<VerifyProblem> problems;
    const auto add = [&](const std::string &path,
                         const std::string &kind,
                         const std::string &detail) {
        problems.push_back({path, kind, detail});
    };

    // Orphaned temp files are the footprint of an interrupted write.
    const fs::path runsDir = fs::path(dir) / kRunDirName;
    if (fs::exists(runsDir)) {
        for (const auto &entry : fs::directory_iterator(runsDir)) {
            const std::string name = entry.path().filename().string();
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, kTmpSuffix) == 0)
                add(entry.path().string(), "TruncatedError",
                    "orphaned partial write (temp file left behind)");
        }
    }

    // The digest invariant: a run's config digest is a pure function
    // of its factor levels (levels are the only thing a study varies
    // besides the seed, and the digest excludes the seed). Two runs
    // with equal levels but different digests mean foreign records
    // were mixed into the archive.
    std::map<std::vector<double>, std::pair<std::uint64_t, std::uint64_t>>
        digestByLevels;

    for (std::uint64_t seq = 0; seq < studyMeta.runCount; ++seq) {
        try {
            const RunReader reader = openRun(seq);
            const RunRecord rec = reader.record();
            if (rec.factorLevels.size() != studyMeta.factors.size())
                add(runPath(seq), "FormatError",
                    strprintf("%zu factor levels, manifest declares "
                              "%zu factors",
                              rec.factorLevels.size(),
                              studyMeta.factors.size()));
            const auto [it, inserted] = digestByLevels.emplace(
                rec.factorLevels,
                std::make_pair(rec.configDigest, seq));
            if (!inserted && it->second.first != rec.configDigest)
                add(runPath(seq), "FormatError",
                    strprintf("config digest 0x%016llx differs from "
                              "run %llu's 0x%016llx at the same "
                              "factor levels",
                              static_cast<unsigned long long>(
                                  rec.configDigest),
                              static_cast<unsigned long long>(
                                  it->second.second),
                              static_cast<unsigned long long>(
                                  it->second.first)));
        } catch (const VersionError &e) {
            add(runPath(seq), "VersionError", e.what());
        } catch (const ChecksumError &e) {
            add(runPath(seq), "ChecksumError", e.what());
        } catch (const TruncatedError &e) {
            add(runPath(seq), "TruncatedError", e.what());
        } catch (const FormatError &e) {
            add(runPath(seq), "FormatError", e.what());
        } catch (const StoreError &e) {
            add(runPath(seq), "StoreError", e.what());
        }
    }
    return problems;
}

} // namespace store
} // namespace treadmill
