#include "util/cli.hpp"

#include <cstdio>

#include "util/error.hpp"

namespace adiv {

CliParser::CliParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void CliParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
    require(!options_.contains(name), "duplicate option --" + name);
    options_[name] = Option{default_value, help, /*is_flag=*/false, {}, false};
    order_.push_back(name);
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
    require(!options_.contains(name), "duplicate flag --" + name);
    options_[name] = Option{"", help, /*is_flag=*/true, {}, false};
    order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help_text().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positionals_.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::optional<std::string> inline_value;
        if (auto eq = name.find('='); eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name.resize(eq);
        }
        auto it = options_.find(name);
        require(it != options_.end(), "unknown option --" + name);
        Option& opt = it->second;
        if (opt.is_flag) {
            require(!inline_value.has_value(), "flag --" + name + " takes no value");
            opt.flag_set = true;
        } else if (inline_value) {
            opt.value = std::move(inline_value);
        } else {
            require(i + 1 < argc, "option --" + name + " requires a value");
            opt.value = argv[++i];
        }
    }
    return true;
}

std::string CliParser::get(const std::string& name) const {
    auto it = options_.find(name);
    require(it != options_.end(), "option --" + name + " was never registered");
    require(!it->second.is_flag, "--" + name + " is a flag; use get_flag");
    return it->second.value.value_or(it->second.default_value);
}

bool CliParser::get_flag(const std::string& name) const {
    auto it = options_.find(name);
    require(it != options_.end(), "flag --" + name + " was never registered");
    require(it->second.is_flag, "--" + name + " takes a value; use get");
    return it->second.flag_set;
}

std::string CliParser::help_text() const {
    std::string out = program_ + " — " + summary_ + "\n\noptions:\n";
    for (const auto& name : order_) {
        const Option& opt = options_.at(name);
        out += "  --" + name;
        if (!opt.is_flag) out += " <value>   (default: " + opt.default_value + ")";
        out += "\n      " + opt.help + "\n";
    }
    out += "  --help\n      print this message\n";
    return out;
}

}  // namespace adiv
