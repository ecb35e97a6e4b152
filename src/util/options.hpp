#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace apv::util {

enum class OptionType { Bool, Int, Double, String };

/// One declared option. The table behind option_table() is the only place
/// a key, its default and the values it accepts are written down.
struct OptionSpec {
  std::string_view key;
  OptionType type;
  std::string_view def;      ///< default, in the option's value syntax
  std::string_view choices;  ///< String: accepted values, '|'-separated;
                             ///< empty = free-form (its consumer checks it)
  double min;                ///< Int/Double: smallest accepted value
  const char* env;           ///< environment alias, or nullptr
  std::string_view doc;
};

/// Every option apv reads, in README order.
std::span<const OptionSpec> option_table();

/// Typed key=value configuration for the runtime components (privatization
/// methods, network model, scheduler, collectives, fault tolerance, checker).
/// Keys are dotted strings such as "pie.fixup" or "net.latency_us", and
/// each must be declared in option_table(). A read resolves, in order, to
/// the value set here, the value of the key's environment alias, and the
/// declared default.
class Options {
 public:
  /// Throws InvalidArgument, naming the key and value, when the key is
  /// undeclared, or the value does not parse fully as the key's type, is
  /// not one of its accepted values, or is below its minimum.
  void set(const std::string& key, const std::string& value);
  void set_int(const std::string& key, std::int64_t value);
  void set_bool(const std::string& key, bool value);

  /// Typed reads. Throw InvalidArgument for an undeclared key, a read as
  /// another type than the declared one, or an environment alias whose
  /// value the key would not accept.
  std::string get_string(std::string_view key) const;
  std::int64_t get_int(std::string_view key) const;
  double get_double(std::string_view key) const;
  bool get_bool(std::string_view key) const;

 private:
  std::string_view resolve(std::string_view key, OptionType type) const;

  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace apv::util
