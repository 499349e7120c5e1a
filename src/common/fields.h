/**
 * @file
 * Field tables. Every plain-data struct that is hashed, persisted,
 * sent over the wire, or exported as counters declares one
 * `forEachField(obj, fn)` next to its own declaration. The table calls
 * `fn(name, member)` once per member, in wire order, and is the only
 * place outside the declaration that lists the members: the store and
 * protocol codecs (store/codec.h), svc::simConfigHash, and the
 * counters CSV (trace/counters_csv.h) all walk it, and each member's
 * C++ type picks its encoding.
 *
 * Names are snake_case; for result structs they are the counters-CSV
 * column stems. Reordering or retyping a table entry is a schema
 * change: it moves stored bytes, wire bytes, config hashes, or CSV
 * columns (tests/svc/wire_golden_test.cpp and
 * tests/trace/counters_schema_test.cpp pin them).
 */
#ifndef SPS_COMMON_FIELDS_H
#define SPS_COMMON_FIELDS_H

#include <concepts>
#include <type_traits>

namespace sps {

/** `S` is `T` or `const T`: one table serves readers and writers
 *  without matching any other struct. */
template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/** `T` has a field table (found by argument-dependent lookup). */
template <typename T>
concept HasFields = requires(const T &t) {
    forEachField(t, [](const char *, const auto &) {});
};

} // namespace sps

#endif // SPS_COMMON_FIELDS_H
