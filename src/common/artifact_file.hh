/**
 * @file
 * On-disk artifact file helpers shared by the trace cache, the
 * checkpoint store and the worker's artifact upload endpoint: the
 * 16-hex-digit key encoding that names artifact files and travels in
 * the x-elfsim-key header, the file-name sanitizer, and the atomic
 * temp-file + rename writer that keeps readers of a shared cache
 * directory from ever seeing a partial file.
 */

#ifndef ELFSIM_COMMON_ARTIFACT_FILE_HH
#define ELFSIM_COMMON_ARTIFACT_FILE_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace elfsim {

/** @a key as exactly 16 lower-case hex digits. */
std::string hexKey(std::uint64_t key);

/** Parse hex digits (either case) and nothing else: no sign, no
 *  whitespace, no "0x". False on anything else and on overflow. */
bool parseHexKey(std::string_view text, std::uint64_t &key);

/**
 * Flatten @a name into a shell- and filesystem-friendly file name:
 * every byte outside [A-Za-z0-9._-] becomes '_' and leading dots are
 * dropped (no dotfiles, no ".." prefixes). Returns @a fallback when
 * nothing is left.
 */
std::string sanitizedName(std::string_view name,
                          std::string_view fallback = {});

/**
 * Write the concatenation of @a parts to @a path atomically: into a
 * temp file private to this process and thread, then renamed into
 * place. On failure the temp file is removed, @a err says what went
 * wrong, and false is returned; @a path is then untouched.
 */
bool writeFileAtomic(const std::string &path,
                     std::initializer_list<std::string_view> parts,
                     std::string &err);

} // namespace elfsim

#endif // ELFSIM_COMMON_ARTIFACT_FILE_HH
