// Lexical environments.
//
// Local frames form a parent chain and are owned by shared_ptr so
// closures can outlive the activation that created them. The global frame
// is shared by every server thread in the CRI runtime, so its map is
// guarded by a shared_mutex: transformed programs read globals constantly
// (function lookups) and write them rarely (defun, top-level setq).
//
// Each binding's value is an atomic word (Binding), and a map node never
// moves or dies while its frame lives, so a caller may resolve a global
// binding once under the lock (global_binding) and afterwards read and
// write it through the pointer without taking the lock at all — the
// bytecode VM does so per instruction site, keeping the frame lock's
// cache line out of every server's per-call path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "sexpr/value.hpp"

namespace curare::lisp {

using sexpr::Symbol;
using sexpr::Value;

class Env;
using EnvPtr = std::shared_ptr<Env>;

/// One binding's value.
class Binding {
 public:
  explicit Binding(Value v) : bits_(v.bits()) {}
  Value get() const {
    return Value::from_bits(bits_.load(std::memory_order_acquire));
  }
  void set(Value v) { bits_.store(v.bits(), std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> bits_;
};

class Env {
 public:
  /// Create the global (root) frame.
  static EnvPtr make_global() { return EnvPtr(new Env(nullptr, true)); }

  /// Create a local frame chained to `parent`.
  static EnvPtr make_local(EnvPtr parent) {
    return EnvPtr(new Env(std::move(parent), false));
  }

  /// Lexical lookup; std::nullopt when unbound anywhere in the chain.
  std::optional<Value> lookup(Symbol* name) const {
    for (const Env* e = this; e != nullptr; e = e->parent_.get()) {
      if (e->global_) {
        std::shared_lock lock(e->mu_);
        auto it = e->vars_.find(name);
        if (it != e->vars_.end()) return it->second.get();
      } else {
        auto it = e->vars_.find(name);
        if (it != e->vars_.end()) return it->second.get();
      }
    }
    return std::nullopt;
  }

  /// The global frame's binding of `name`, or nullptr when it has none
  /// (call on the global frame). The pointer stays valid, and the
  /// binding stays the one `name` resolves to there, for the frame's
  /// whole life: bindings are never removed.
  Binding* global_binding(Symbol* name) {
    std::shared_lock lock(mu_);
    auto it = vars_.find(name);
    return it == vars_.end() ? nullptr : &it->second;
  }

  /// Bind `name` in THIS frame (let/lambda binding or defun).
  void define(Symbol* name, Value v) {
    if (global_) {
      std::unique_lock lock(mu_);
      bind(name, v);
    } else {
      bind(name, v);
    }
  }

  /// Assign to the innermost existing binding (setq). Creates a global
  /// binding if the variable is unbound, as interactive Lisps do.
  void set(Symbol* name, Value v) {
    for (Env* e = this; e != nullptr; e = e->parent_.get()) {
      if (e->global_) {
        std::unique_lock lock(e->mu_);
        auto it = e->vars_.find(name);
        if (it != e->vars_.end() || e->parent_ == nullptr) {
          e->bind(name, v);
          return;
        }
      } else {
        auto it = e->vars_.find(name);
        if (it != e->vars_.end()) {
          it->second.set(v);
          return;
        }
      }
    }
  }

  bool is_global() const { return global_; }
  const EnvPtr& parent() const { return parent_; }

  /// Visit every value bound in THIS frame (not the chain). Used by the
  /// collector: closures reach their captured frames through here, and
  /// the interpreter enumerates the global frame as a root source.
  template <typename Fn>
  void for_each_binding(Fn&& fn) const {
    if (global_) {
      std::shared_lock lock(mu_);
      for (const auto& [name, b] : vars_) fn(b.get());
    } else {
      for (const auto& [name, b] : vars_) fn(b.get());
    }
  }

  /// Visit every (symbol, value) binding in THIS frame. The image
  /// serializer needs the names too: a frame is flattened as a set of
  /// named slots so the clone can re-bind them in a fresh session.
  template <typename Fn>
  void for_each_binding_named(Fn&& fn) const {
    if (global_) {
      std::shared_lock lock(mu_);
      for (const auto& [name, b] : vars_) fn(name, b.get());
    } else {
      for (const auto& [name, b] : vars_) fn(name, b.get());
    }
  }

  std::size_t binding_count() const {
    if (global_) {
      std::shared_lock lock(mu_);
      return vars_.size();
    }
    return vars_.size();
  }

 private:
  Env(EnvPtr parent, bool global)
      : parent_(std::move(parent)), global_(global) {}

  /// Bind or rebind in this frame (the caller holds the lock if global).
  void bind(Symbol* name, Value v) {
    auto [it, fresh] = vars_.try_emplace(name, v);
    if (!fresh) it->second.set(v);
  }

  EnvPtr parent_;
  const bool global_;
  mutable std::shared_mutex mu_;  // used only when global_
  std::unordered_map<Symbol*, Binding> vars_;
};

}  // namespace curare::lisp
