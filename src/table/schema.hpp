#pragma once
// Table schema: ordered, named fields.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace llmq::table {

struct Field {
  std::string name;
  bool operator==(const Field&) const = default;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  /// Convenience: a schema of these field names.
  static Schema of_names(std::vector<std::string> names);

  std::size_t size() const { return fields_.size(); }
  const Field& field(std::size_t i) const { return fields_.at(i); }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of a field by name; nullopt if absent.
  std::optional<std::size_t> index_of(std::string_view name) const;

  /// Index of a field by name; throws std::out_of_range if absent.
  std::size_t require(std::string_view name) const;

  bool has(std::string_view name) const { return index_of(name).has_value(); }

  /// New schema keeping only `indices`, in that order.
  Schema project(const std::vector<std::size_t>& indices) const;

  bool operator==(const Schema&) const = default;

 private:
  std::vector<Field> fields_;
};

}  // namespace llmq::table
