// Symbol interning.
//
// Lisp symbols compare by identity (`eq`), so the reader must hand out the
// same Symbol object for the same spelling. The table is shared by every
// thread in the CRI runtime — analysis and transformed programs intern
// symbols concurrently — so lookup takes a shared lock and only a genuine
// first-time intern takes the exclusive lock.
#pragma once

#include <shared_mutex>
#include <string>
#include <vector>
#include <string_view>
#include <unordered_map>

#include "gc/gc.hpp"
#include "sexpr/heap.hpp"
#include "sexpr/value.hpp"

namespace curare::sexpr {

/// Interned symbols are GC roots: a Symbol* held in C++ maps (analysis
/// summaries, declarations, struct types) must never dangle, so the
/// table pins every symbol it ever handed out for its own lifetime.
class SymbolTable : public gc::RootSource {
 public:
  explicit SymbolTable(Heap& heap) : heap_(heap) {
    heap_.gc().add_root_source(this);
  }
  ~SymbolTable() override { heap_.gc().remove_root_source(this); }
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  void gc_roots(std::vector<Value>& out) override {
    std::shared_lock lock(mu_);
    for (const auto& [name, sym] : map_) out.push_back(Value::object(sym));
  }

  /// Return the unique Symbol for `name`, creating it on first use.
  Symbol* intern(std::string_view name) {
    {
      std::shared_lock lock(mu_);
      auto it = map_.find(std::string(name));
      if (it != map_.end()) return it->second;
    }
    // Enter the unsafe region before taking the lock: the allocation
    // below must not wait out a collection while holding the lock that
    // the collector's root walk (gc_roots) takes.
    gc::MutatorScope ms(heap_.gc());
    std::unique_lock lock(mu_);
    auto [it, inserted] = map_.try_emplace(std::string(name), nullptr);
    if (inserted) it->second = heap_.alloc<Symbol>(std::string(name));
    return it->second;
  }

  Value intern_value(std::string_view name) {
    return Value::object(intern(name));
  }

  /// Generate a fresh uninterned-looking symbol (gensym). The name is
  /// unique for the lifetime of this table.
  Symbol* gensym(std::string_view prefix = "g");

  std::size_t size() const {
    std::shared_lock lock(mu_);
    return map_.size();
  }

 private:
  Heap& heap_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Symbol*> map_;
  std::atomic<std::uint64_t> gensym_counter_{0};
};

}  // namespace curare::sexpr
