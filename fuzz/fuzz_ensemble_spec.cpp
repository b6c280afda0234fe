// Fuzz target for the OPEN ensemble-spec parser (fusion/spec.hpp). OPEN
// targets arrive over the wire, so the spec grammar consumes external bytes:
// arbitrary input may produce InvalidArgument (malformed member lists,
// unknown fusion rules, duplicate members, out-of-range options), but never
// a crash, an ADIV_ASSERT failure, or an out-of-bounds read (run under ASan
// via ci_check.sh).
//
// The same entry point serves two drivers: libFuzzer (ADIV_FUZZ=ON with
// Clang) and the deterministic corpus-replay main in replay_main.cpp.
#include <cstddef>
#include <cstdint>
#include <string>

#include "fusion/spec.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string text(reinterpret_cast<const char*>(data), size);

    // Detection must never throw: the server probes every OPEN target with
    // it before deciding which open path to take.
    const bool looks_ensemble = adiv::fusion::is_ensemble_spec(text);

    adiv::fusion::EnsembleSpec spec;
    try {
        spec = adiv::fusion::parse_ensemble_spec(text);
    } catch (const adiv::InvalidArgument&) {
        return 0;
    } catch (const adiv::DataError&) {
        return 0;
    }
    // Anything that parses must have been detectable as an ensemble spec
    // (members are joined with '+', options with ';').
    if (!looks_ensemble) __builtin_trap();
    // Round trip: the canonical rendering is itself a valid spec and a
    // canonicalization fixpoint (OPENED echoes it as <detector>, and a client
    // re-OPENing that echo must land on the same session shape). A canonical
    // form that does not parse is a bug, so its own throw traps. Full struct
    // equality is NOT preserved — canonical() drops options the fusion rule
    // ignores (e.g. `fa` under fuse=union).
    const std::string canon = adiv::fusion::canonical(spec);
    adiv::fusion::EnsembleSpec reparsed;
    try {
        reparsed = adiv::fusion::parse_ensemble_spec(canon);
    } catch (...) {
        __builtin_trap();
    }
    if (adiv::fusion::canonical(reparsed) != canon) __builtin_trap();
    return 0;
}
