#include "table/schema.hpp"

#include <stdexcept>

namespace llmq::table {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    for (std::size_t j = i + 1; j < fields_.size(); ++j) {
      if (fields_[i].name == fields_[j].name)
        throw std::invalid_argument("Schema: duplicate field name '" +
                                    fields_[i].name + "'");
    }
  }
}

Schema Schema::of_names(std::vector<std::string> names) {
  std::vector<Field> fs;
  fs.reserve(names.size());
  for (auto& n : names) fs.push_back(Field{std::move(n)});
  return Schema(std::move(fs));
}

std::optional<std::size_t> Schema::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i)
    if (fields_[i].name == name) return i;
  return std::nullopt;
}

std::size_t Schema::require(std::string_view name) const {
  if (auto i = index_of(name)) return *i;
  throw std::out_of_range("Schema: no field named '" + std::string(name) +
                          "'");
}

Schema Schema::project(const std::vector<std::size_t>& indices) const {
  std::vector<Field> fs;
  fs.reserve(indices.size());
  for (std::size_t i : indices) fs.push_back(fields_.at(i));
  return Schema(std::move(fs));
}

}  // namespace llmq::table
