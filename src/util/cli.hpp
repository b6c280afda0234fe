// Small command-line option parser for the examples and figure harnesses.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` options plus
// positional arguments. Unknown options are an error so typos surface
// immediately; `--help` prints the registered options.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/parse_number.hpp"

namespace adiv {

class CliParser {
public:
    /// program: argv[0]-style name used in help output.
    /// summary: one-line description printed at the top of --help.
    CliParser(std::string program, std::string summary);

    /// Registers an option that takes a value; default_value is shown in help
    /// and returned when the option is absent.
    void add_option(const std::string& name, const std::string& default_value,
                    const std::string& help);

    /// Registers a boolean flag (present => true).
    void add_flag(const std::string& name, const std::string& help);

    /// Parses argv. Returns false if --help was requested (help text already
    /// printed to stdout). Throws InvalidArgument on malformed input.
    bool parse(int argc, const char* const* argv);

    [[nodiscard]] std::string get(const std::string& name) const;

    /// The option's value as a `T` in the one number grammar
    /// (util/parse_number.hpp). Throws InvalidArgument when it is not a
    /// whole number that fits `T`: `--port 70000` is an error for a
    /// uint16_t, and `--jobs -1` for a size_t, never a wrapped value.
    template <class T>
    [[nodiscard]] T get_number(const std::string& name) const {
        const std::string text = get(name);
        if (const std::optional<T> value = parse_number<T>(text)) return *value;
        throw InvalidArgument(
            "option --" + name + " expects " +
            (std::is_integral_v<T>
                 ? "an integer in [" + std::to_string(std::numeric_limits<T>::min()) +
                       ", " + std::to_string(std::numeric_limits<T>::max()) + "]"
                 : std::string("a number")) +
            ", got '" + text + "'");
    }

    [[nodiscard]] bool get_flag(const std::string& name) const;
    [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
        return positionals_;
    }

    [[nodiscard]] std::string help_text() const;

private:
    struct Option {
        std::string default_value;
        std::string help;
        bool is_flag = false;
        std::optional<std::string> value;
        bool flag_set = false;
    };

    std::string program_;
    std::string summary_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;
    std::vector<std::string> positionals_;
};

}  // namespace adiv
