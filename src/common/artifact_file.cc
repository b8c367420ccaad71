#include "common/artifact_file.hh"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include <unistd.h>

#include "common/error.hh"

namespace elfsim {

std::string
hexKey(std::uint64_t key)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[std::size_t(i)] = digits[key & 0xf];
        key >>= 4;
    }
    return out;
}

bool
parseHexKey(std::string_view text, std::uint64_t &key)
{
    // from_chars takes no sign, whitespace or "0x" and reports
    // overflow, unlike strtoull.
    const char *end = text.data() + text.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, v, 16);
    if (ec != std::errc() || ptr != end)
        return false;
    key = v;
    return true;
}

std::string
sanitizedName(std::string_view name, std::string_view fallback)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' ||
                        c == '_' || c == '.';
        if (c == '.' && out.empty())
            continue;
        out.push_back(ok ? c : '_');
    }
    return out.empty() ? std::string(fallback) : out;
}

bool
writeFileAtomic(const std::string &path,
                std::initializer_list<std::string_view> parts,
                std::string &err)
{
    // Private per process and per thread: concurrent writers of the
    // same artifact never share a temp file.
    const std::string tmp =
        path + ".tmp." + std::to_string(std::uint64_t(::getpid())) +
        "." +
        std::to_string(std::uint64_t(
            std::hash<std::thread::id>{}(std::this_thread::get_id())));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            err = errorf("cannot open '%s' for writing", tmp.c_str());
            return false;
        }
        for (std::string_view p : parts)
            os.write(p.data(), std::streamsize(p.size()));
        os.close();
        if (!os) {
            std::remove(tmp.c_str());
            err = errorf("write to '%s' failed", tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        err = errorf("cannot rename '%s' into '%s'", tmp.c_str(),
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace elfsim
