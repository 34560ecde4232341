// Bytecode VM tests: expression parity against the tree-walker, error
// parity (same messages from either engine), fallback coverage, tail
// calls, late binding, and the burned-in-builtin contract.
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "vm/compiler.hpp"

namespace curare::vm {
namespace {

using sexpr::write_str;

/// Result-or-error plus captured printer output of one program run.
struct Outcome {
  std::string result;
  std::string output;
  bool operator==(const Outcome&) const = default;
};

Outcome run_tree(std::string_view src) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Outcome o;
  try {
    o.result = write_str(in.eval_program(src));
  } catch (const sexpr::LispError& e) {
    o.result = std::string("error: ") + e.what();
  }
  o.output = in.take_output();
  return o;
}

Outcome run_vm(std::string_view src) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  Outcome o;
  try {
    o.result = write_str(vm.eval_program(src));
  } catch (const sexpr::LispError& e) {
    o.result = std::string("error: ") + e.what();
  }
  o.output = in.take_output();
  return o;
}

/// Both engines on fresh interpreters; everything observable equal.
void expect_parity(std::string_view src) {
  const Outcome tree = run_tree(src);
  const Outcome vm = run_vm(src);
  EXPECT_EQ(tree.result, vm.result) << "program: " << src;
  EXPECT_EQ(tree.output, vm.output) << "program: " << src;
}

TEST(VmParityTest, ExpressionBattery) {
  const char* programs[] = {
      "42",
      "nil",
      "t",
      "'sym",
      "'(1 2 3)",
      "\"str\"",
      "(+ 1 2)",
      "(+ 1 2 3 4)",
      "(- 7)",
      "(* 2.5 4)",
      "(if 0 'yes 'no)",
      "(if nil 1)",
      "(cond (nil 1) (7) (t 2))",
      "(when t 1 2 3)",
      "(unless t 'x)",
      "(and)",
      "(or)",
      "(and 1 nil 3)",
      "(or nil 2)",
      "(let ((x 1)) (let ((x 2) (y x)) y))",
      "(let* ((x 2) (y (+ x 1))) (* x y))",
      "(let ((x)) x)",
      "(let ((x 1) (x 2)) x)",
      "(progn 1 2 3)",
      "(progn)",
      "(setq a 1 b 2) (+ a b)",
      "(setq)",
      "(let ((c (cons 1 2))) (setf (car c) 9) c)",
      "(let ((l (list 1 2 3))) (setf (caddr l) 'z) l)",
      "(let ((i 0)) (while (< i 5) (setq i (+ i 1))) i)",
      "(dotimes (i 4) i)",
      "(let ((s 0)) (dotimes (i 5 s) (setq s (+ s i))))",
      "(let ((s 0)) (dolist (x '(1 2 3) s) (setq s (+ s x))))",
      "(dolist (x nil) x)",
      "(let ((n 3)) (incf n) (decf n 2) n)",
      "(let ((l '())) (push 'a l) (push 'b l) (list (pop l) l))",
      "(defun f (x &rest r) (cons x r)) (f 1 2 3)",
      "(defun g (x &optional y) (list x y)) (g 1)",
      "(declare (ignore x))",
      "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) "
      "(fib 15)",
      "((lambda (x y) (* x y)) 6 7)",
      "(funcall (lambda (x) (+ x 1)) 41)",
      "(eq 'a 'a)",
      "(equal '(1 2) '(1 2))",
      "(car nil)",
      "(cdr nil)",
      "(1+ 1.5)",
  };
  for (const char* p : programs) expect_parity(p);
}

TEST(VmParityTest, ErrorMessagesMatchTreeWalker) {
  const char* programs[] = {
      "no-such-var",
      "(no-such-fn 1)",
      "(3 4)",
      "(defun f (x) x) (f 1 2)",
      "(defun f (x &rest r) x) (f)",
      "(car 5)",
      "(cons 1)",
      "(+ 'a 1)",
      "(1+ 'a)",
      "(dotimes (i 'x) i)",
      "(setf (car 5) 1)",
      "(dolist (x 5) x)",
      "(let ((l (list 1))) (setf (cadr l) 2) l)",
      // Non-tail infinite recursion: both engines hit the depth limit
      // with the same message.
      "(defun inf (n) (+ 1 (inf n))) (inf 0)",
  };
  for (const char* p : programs) expect_parity(p);
}

TEST(VmTest, DeepTailRecursionStaysFlat) {
  const Outcome o = run_vm(
      "(defun lp (n) (if (< n 1) 'ok (lp (- n 1)))) (lp 200000)");
  EXPECT_EQ(o.result, "ok");
}

TEST(VmTest, MutualTailCallsThroughApply) {
  // even?/odd? tail-call each other: every hop reuses the frame via
  // kTailCall on a freshly compiled callee.
  const Outcome o = run_vm(
      "(defun ev (n) (if (< n 1) t (od (- n 1))))"
      "(defun od (n) (if (< n 1) nil (ev (- n 1))))"
      "(ev 100001)");
  EXPECT_EQ(o.result, "nil");
}

TEST(VmTest, RedefinedFunctionsAreLateBound) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program("(defun base (x) (+ x 1)) (defun caller (x) (base x))");
  EXPECT_EQ(write_str(vm.eval_program("(caller 10)")), "11");
  vm.eval_program("(defun base (x) (* x 100))");
  EXPECT_EQ(write_str(vm.eval_program("(caller 10)")), "1000")
      << "user functions resolve through the environment on every call";
}

TEST(VmTest, CoreBuiltinsBurnInAtCompileTime) {
  // The documented contract (vm/compiler.hpp): a global that holds the
  // interpreter's own builtin at compile time is burned into the code
  // object. Shadowing `+` after `user-plus` compiled does not re-route
  // the compiled code; a function compiled after the shadowing sees
  // the new binding.
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program("(defun user-plus (a b) (+ a b))");
  EXPECT_EQ(write_str(vm.eval_program("(user-plus 2 3)")), "5");
  vm.eval_program("(defun + (a b) 'shadowed)");
  EXPECT_EQ(write_str(vm.eval_program("(user-plus 2 3)")), "5")
      << "already-compiled code keeps the burned-in builtin";
  vm.eval_program("(defun late-plus (a b) (+ a b))");
  EXPECT_EQ(write_str(vm.eval_program("(late-plus 2 3)")), "shadowed")
      << "code compiled after the shadowing sees the new binding";
}

TEST(VmTest, RefusedFormsFallBackToTree) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  // defun itself refuses (top-level fallback); make-adder's body holds
  // a lambda so the closure caches a refusal and tree-walks on apply.
  const Value v = vm.eval_program(
      "(defun make-adder (k) (lambda (x) (+ x k)))"
      "(funcall (make-adder 5) 10)");
  EXPECT_EQ(write_str(v), "15");
  EXPECT_GT(vm.fallback_entries(), 0u)
      << "refused closures are counted as tree-walker entries";
}

TEST(VmTest, CompiledEntriesCountApplications) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program("(defun sq (x) (* x x))");
  EXPECT_EQ(vm.compiled_entries(), 0u);
  // Applied through the hook (mapcar calls Interp::apply): every
  // application enters the VM.
  EXPECT_EQ(write_str(vm.eval_program("(mapcar sq '(1 2 3))")),
            "(1 4 9)");
  EXPECT_GT(vm.compiled_entries(), 0u);
}

// ev holds a lambda, so the compiler refuses it and it tree-walks; od
// compiles. Every hop crosses the engine seam in tail position: the
// tree-walker hands od to the VM, whose tail call to ev comes back as
// an Interp::TailCall instead of a nested apply. Deep enough that any
// C++ stack growth per hop would overflow.
TEST(VmTest, CrossEngineMutualTailRecursionRunsInConstantStack) {
  const char* prog =
      "(defun ev (n) (let ((f (lambda (x) x)))"
      " (if (= n 0) t (od (- n 1)))))"
      "(defun od (n) (if (= n 0) nil (ev (- n 1))))";
  const Outcome even = run_vm(std::string(prog) + "(ev 200000)");
  EXPECT_EQ(even.result, "t");
  const Outcome odd = run_vm(std::string(prog) + "(od 200001)");
  EXPECT_EQ(odd.result, "t");
}

// The fallback contract: a closure the compiler refuses tree-walks, but
// the compiled closures it calls still run on the VM — one fallback
// entry for the refused caller, one compiled entry per callee call.
TEST(VmTest, CompiledCalleeOfRefusedCallerRunsCompiled) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program(
      "(defun step1 (x) (+ x 1))"
      "(defun outer (n) (let ((f (lambda (y) y)) (acc 0))"
      " (dotimes (i n) (setq acc (step1 acc))) acc))");
  const std::uint64_t compiled0 = vm.compiled_entries();
  const std::uint64_t fallback0 = vm.fallback_entries();
  EXPECT_EQ(write_str(vm.eval_program("(outer 100)")), "100");
  EXPECT_GE(vm.compiled_entries() - compiled0, 100u)
      << "step1 runs compiled from the tree-walked outer";
  EXPECT_EQ(vm.fallback_entries() - fallback0, 1u)
      << "only outer itself enters the tree-walker";
}

// Non-tail recursion that alternates engines spends C++ stack on every
// level (a tree activation plus a VM execution); running out of it must
// be a Lisp error, not a crash.
TEST(VmTest, DeepCrossEngineRecursionErrorsInsteadOfOverflowing) {
  const Outcome o = run_vm(
      "(defun r (n) (let ((f (lambda (x) x)))"
      " (if (= n 0) 0 (+ 1 (c (- n 1))))))"
      "(defun c (n) (+ 0 (r n)))"
      "(r 1000000)");
  EXPECT_NE(o.result.find("evaluation too deep"), std::string::npos)
      << o.result;
  EXPECT_EQ(run_vm("(defun r (n) (let ((f (lambda (x) x)))"
                   " (if (= n 0) 0 (+ 1 (c (- n 1))))))"
                   "(defun c (n) (+ 0 (r n)))"
                   "(r 100)")
                .result,
            "100")
      << "modest alternating recursion stays well inside the guard, "
         "even with a sanitizer's larger frames";
}

// setf of a defstruct field compiles (the field's slot is fixed once
// defstruct ran), keeping the tree-walker's evaluation order and error.
TEST(VmTest, StructFieldSetfCompiles) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program(
      "(defstruct cell2 (pointers nxt) (data v))"
      "(defun put-v (c x) (setf (v c) x))");
  const auto fn = in.global_env()->lookup(ctx.symbols.intern("put-v"));
  ASSERT_TRUE(fn.has_value());
  const CodeObject* code = nullptr;
  {
    gc::MutatorScope ms(ctx.heap.gc());
    code = vm.ensure_compiled(static_cast<const lisp::Closure*>(fn->obj()));
  }
  ASSERT_NE(code, nullptr);
  EXPECT_NE(code->disassemble().find("set-field"), std::string::npos);
  EXPECT_EQ(write_str(vm.eval_program(
                "(let ((c (make-cell2))) (list (put-v c 7) (v c)))")),
            "(7 7)");
  expect_parity(
      "(defstruct cell2 (pointers nxt) (data v))"
      "(defun put-v (c x) (setf (v c) x))"
      "(put-v 'not-a-cell (progn (print 'value-first) 1))");
}

// Compiled code reads and writes globals through bindings cached per
// instruction site, without the global frame's lock, while other
// threads keep adding bindings to the same frame (rehashing its map).
// The stress shape for the thread sanitizer; the visible check is that
// every read sees the one value ever stored.
TEST(VmTest, CachedGlobalBindingsStayCoherentUnderConcurrentDefines) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.install_apply_hook();
  vm.eval_program(
      "(setq g-val 7)"
      "(defun sum-g (n) (let ((acc 0))"
      " (dotimes (i n) (setq g-val 7) (setq acc (+ acc g-val))) acc))");
  const Value fn = in.global("sum-g");
  constexpr std::int64_t kIters = 20000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      const Value args[] = {Value::fixnum(kIters)};
      for (int rep = 0; rep < 5; ++rep) {
        if (in.apply(fn, args).as_fixnum() != 7 * kIters)
          wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    gc::MutatorScope ms(ctx.heap.gc());
    for (int i = 0; i < 4000; ++i) {
      in.global_env()->define(
          ctx.symbols.intern("fresh-global-" + std::to_string(i)),
          Value::fixnum(i));
    }
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(write_str(vm.eval_program("fresh-global-3999")), "3999");
}

TEST(VmTest, DisassembleNamesOpsAndConstants) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  Vm vm(in);
  vm.eval_program("(defun f (x) (if (< x 2) 'small (1+ x)))");
  const auto fn = in.global_env()->lookup(ctx.symbols.intern("f"));
  ASSERT_TRUE(fn.has_value());
  ASSERT_TRUE(fn->is(sexpr::Kind::Closure));
  const CodeObject* code = nullptr;
  {
    gc::MutatorScope ms(ctx.heap.gc());
    code = vm.ensure_compiled(
        static_cast<const lisp::Closure*>(fn->obj()));
  }
  ASSERT_NE(code, nullptr);
  const std::string dis = code->disassemble();
  EXPECT_NE(dis.find("f (params 1"), std::string::npos) << dis;
  EXPECT_NE(dis.find("jump-if-nil"), std::string::npos) << dis;
  EXPECT_NE(dis.find("add1"), std::string::npos) << dis;
  EXPECT_NE(dis.find("return"), std::string::npos) << dis;
  EXPECT_NE(dis.find("small"), std::string::npos)
      << "constant-pool operands print as s-expressions: " << dis;
}

TEST(VmTest, CompileRefusalCarriesAReason) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  gc::MutatorScope ms(ctx.heap.gc());
  const Value form =
      sexpr::read_one(ctx, "(lambda (x) x)");
  const CompileResult r = compile_expr(in, form, in.global_env());
  EXPECT_EQ(r.code, nullptr);
  EXPECT_FALSE(r.why.empty());
}

}  // namespace
}  // namespace curare::vm
