"""Concolic interpreter for mini-JS (the ExpoSE/Jalangi2 stand-in).

Executes one concrete path while building the symbolic path condition:
every branch on a symbolic condition is recorded as a
:class:`BranchRecord` carrying the constraint of the branch taken *and*
of the alternative, so the engine (generational search, §6.2) can flip
clauses and query the CEGAR solver for new inputs.

Regex calls are fork points: ``test``/``exec``/``match``/``split``/
``replace``/``search`` on a symbolic string record a branch whose two
sides are the capturing-language membership and non-membership models of
Algorithm 2 — this is the integration the paper describes in §3.2/§6.1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.constraints import (
    Eq,
    Formula,
    StrConst,
    StrVar,
    Term,
    concat as concat_terms,
    neg,
)
from repro.dse import astnodes as js
from repro.dse.values import (
    Concolic,
    Environment,
    JSArray,
    JSFunction,
    JSObject,
    JSUndefined,
    NativeFunction,
    UNDEFINED,
    concrete_of,
    formula_of,
    term_of,
)
from repro.model.api import SymbolicRegExp
from repro.model.cegar import CapturingConstraint


class RegexSupportLevel(Enum):
    """The four support levels of the Table 7 breakdown."""

    CONCRETE = 0  # concretize all regex operations (baseline)
    MODEL = 1  # + model regexes (no capture variables)
    CAPTURES = 2  # + symbolic captures & backreferences
    REFINED = 3  # + CEGAR refinement (full system)


#: ``side(outcome)``: the clause and capturing constraints of a branch
#: going ``outcome`` (condition truthy / regex matched).
Side = Callable[[bool], Tuple[Formula, Tuple[CapturingConstraint, ...]]]


@dataclass
class BranchRecord:
    """One symbolic branch: the clause taken and its negation.

    ``polarity`` is the concrete outcome (condition truthy / regex
    matched); the engine's path signatures need it to distinguish the two
    directions of the same program point.  A regex branch's ``side`` is
    :meth:`ExecModel.side`, which translates a side on first read, so a
    side that no flip and no flip's prefix reads is never built."""

    site: int
    polarity: bool
    side: Side

    @property
    def taken(self) -> Formula:
        return self.side(self.polarity)[0]

    @property
    def flipped(self) -> Formula:
        return self.side(not self.polarity)[0]

    @property
    def taken_constraints(self) -> Tuple[CapturingConstraint, ...]:
        return self.side(self.polarity)[1]

    @property
    def flipped_constraints(self) -> Tuple[CapturingConstraint, ...]:
        return self.side(not self.polarity)[1]


@dataclass
class Trace:
    """The observable outcome of one concrete-plus-symbolic execution."""

    branches: List[BranchRecord] = field(default_factory=list)
    covered: set = field(default_factory=set)
    failures: List[str] = field(default_factory=list)
    error: Optional[str] = None
    concretizations: int = 0
    regex_ops: int = 0
    exports: Optional[object] = None


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class JSException(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__(str(concrete_of(value)))


class JSRegExpValue:
    """A runtime RegExp object: concrete matcher + symbolic model."""

    def __init__(self, source: str, flags: str):
        self.symbolic = SymbolicRegExp(source, flags)

    @property
    def last_index(self) -> int:
        return self.symbolic.last_index

    @last_index.setter
    def last_index(self, value: int) -> None:
        self.symbolic.last_index = value


_LOOP_LIMIT = 10_000


class Interpreter:
    """Executes one program on one concrete input assignment."""

    def __init__(
        self,
        program: js.Program,
        inputs: Optional[Dict[str, str]] = None,
        level: RegexSupportLevel = RegexSupportLevel.REFINED,
        max_steps: int = 200_000,
    ):
        self.program = program
        self.inputs = dict(inputs or {})
        self.level = level
        self.max_steps = max_steps
        self.trace = Trace()
        self.globals = Environment()
        self.steps = 0
        self._site_ids: Dict[int, int] = {}
        self._site_counter = itertools.count(10_000_000)
        self._symbol_vars: Dict[str, StrVar] = {}
        self._install_globals()

    # -- public ------------------------------------------------------------

    def run(self) -> Trace:
        try:
            self._exec_block_body(self.program.body, self.globals)
        except JSException as exc:
            self.trace.error = f"uncaught exception: {exc}"
        except _AssertionFailure as failure:
            self.trace.failures.append(str(failure))
        except RecursionError:
            self.trace.error = "recursion limit"
        except _StepLimit:
            self.trace.error = "step limit"
        module = self.globals.lookup("module")
        if isinstance(module, JSObject):
            self.trace.exports = module.get("exports")
        return self.trace

    def symbol_var(self, name: str) -> StrVar:
        """The solver variable backing one symbolic input."""
        if name not in self._symbol_vars:
            self._symbol_vars[name] = StrVar(f"in${name}")
        return self._symbol_vars[name]

    # -- environment --------------------------------------------------------

    def _install_globals(self) -> None:
        env = self.globals
        env.declare("module", JSObject({"exports": JSObject()}))
        env.declare("undefined", UNDEFINED)
        env.declare(
            "symbol",
            NativeFunction("symbol", self._builtin_symbol),
        )
        env.declare(
            "assert",
            NativeFunction("assert", self._builtin_assert),
        )
        env.declare(
            "console",
            JSObject({"log": NativeFunction("log", lambda *args: UNDEFINED)}),
        )
        env.declare(
            "RegExp",
            NativeFunction("RegExp", self._builtin_regexp),
        )
        env.declare(
            "String",
            NativeFunction(
                "String", lambda v=UNDEFINED: str(_to_js_string(v))
            ),
        )
        env.declare(
            "parseInt",
            NativeFunction("parseInt", self._builtin_parse_int),
        )
        env.declare(
            "Math",
            JSObject(
                {
                    "floor": NativeFunction(
                        "floor", lambda v=0: float(int(concrete_of(v)))
                    ),
                    "max": NativeFunction(
                        "max",
                        lambda *vs: max(concrete_of(v) for v in vs),
                    ),
                    "min": NativeFunction(
                        "min",
                        lambda *vs: min(concrete_of(v) for v in vs),
                    ),
                }
            ),
        )

    def _builtin_symbol(self, name=UNDEFINED, default=UNDEFINED):
        concrete_name = str(concrete_of(name))
        if concrete_name in self.inputs:
            concrete = self.inputs[concrete_name]
        elif not isinstance(default, JSUndefined):
            concrete = str(concrete_of(default))
        else:
            concrete = ""
        self.inputs.setdefault(concrete_name, concrete)
        return Concolic(concrete, term=self.symbol_var(concrete_name))

    def _builtin_assert(self, condition=UNDEFINED, message=UNDEFINED):
        self._branch_on(condition, site=-1)
        if not _truthy(concrete_of(condition)):
            text = (
                str(concrete_of(message))
                if not isinstance(message, JSUndefined)
                else "assertion failed"
            )
            raise _AssertionFailure(text)
        return UNDEFINED

    def _builtin_regexp(self, source=UNDEFINED, flags=UNDEFINED):
        src = str(concrete_of(source))
        flg = "" if isinstance(flags, JSUndefined) else str(concrete_of(flags))
        if term_of(source) is not None:
            self.trace.concretizations += 1  # symbolic pattern: concretize
        return JSRegExpValue(src, flg)

    def _builtin_parse_int(self, value=UNDEFINED, base=UNDEFINED):
        if term_of(value) is not None:
            self.trace.concretizations += 1
        text = str(concrete_of(value)).strip()
        digits = ""
        for i, ch in enumerate(text):
            if ch.isdigit() or (i == 0 and ch in "+-"):
                digits += ch
            else:
                break
        try:
            return float(int(digits))
        except ValueError:
            return float("nan")

    # -- statement execution ---------------------------------------------------

    def _exec_block_body(self, body: List[js.Statement], env: Environment):
        # Hoist function declarations, as JavaScript does.
        for stmt in body:
            if isinstance(stmt, js.FunctionDecl):
                env.declare(
                    stmt.name,
                    JSFunction(stmt.name, stmt.params, stmt.body, env),
                )
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt: js.Statement, env: Environment) -> None:
        self._tick()
        self.trace.covered.add(stmt.sid)
        if isinstance(stmt, js.ExprStatement):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, js.VarDecl):
            value = (
                self._eval(stmt.init, env)
                if stmt.init is not None
                else UNDEFINED
            )
            env.declare(stmt.name, value)
        elif isinstance(stmt, js.Block):
            self._exec_block_body(stmt.body, Environment(env))
        elif isinstance(stmt, js.If):
            condition = self._eval(stmt.test, env)
            self._branch_on(condition, stmt.sid)
            if _truthy(concrete_of(condition)):
                self._exec(stmt.then, env)
            elif stmt.otherwise is not None:
                self._exec(stmt.otherwise, env)
        elif isinstance(stmt, js.While):
            iterations = 0
            while True:
                condition = self._eval(stmt.test, env)
                self._branch_on(condition, stmt.sid)
                if not _truthy(concrete_of(condition)):
                    break
                iterations += 1
                if iterations > _LOOP_LIMIT:
                    raise _StepLimit()
                try:
                    self._exec(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, js.For):
            loop_env = Environment(env)
            if stmt.init is not None:
                self._exec(stmt.init, loop_env)
            iterations = 0
            while True:
                if stmt.test is not None:
                    condition = self._eval(stmt.test, loop_env)
                    self._branch_on(condition, stmt.sid)
                    if not _truthy(concrete_of(condition)):
                        break
                iterations += 1
                if iterations > _LOOP_LIMIT:
                    raise _StepLimit()
                try:
                    self._exec(stmt.body, loop_env)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.update is not None:
                    self._eval(stmt.update, loop_env)
        elif isinstance(stmt, js.Return):
            value = (
                self._eval(stmt.value, env)
                if stmt.value is not None
                else UNDEFINED
            )
            raise _Return(value)
        elif isinstance(stmt, js.Break):
            raise _Break()
        elif isinstance(stmt, js.Continue):
            raise _Continue()
        elif isinstance(stmt, js.FunctionDecl):
            pass  # hoisted
        elif isinstance(stmt, js.Throw):
            raise JSException(self._eval(stmt.value, env))
        else:
            raise TypeError(f"cannot execute {stmt!r}")

    # -- expression evaluation ----------------------------------------------------

    def _eval(self, expr: js.Node, env: Environment):
        self._tick()
        method = self._EVAL[type(expr)]
        return method(self, expr, env)

    def _eval_literal(self, expr: js.Literal, env):
        return expr.value

    def _eval_undefined(self, expr, env):
        return UNDEFINED

    def _eval_regex(self, expr: js.RegexLiteral, env):
        return JSRegExpValue(expr.source, expr.flags)

    def _eval_identifier(self, expr: js.Identifier, env):
        return env.lookup(expr.name)

    def _eval_array(self, expr: js.ArrayLiteral, env):
        return JSArray([self._eval(el, env) for el in expr.elements])

    def _eval_object(self, expr: js.ObjectLiteral, env):
        obj = JSObject()
        for key, value in expr.entries:
            obj.set(key, self._eval(value, env))
        return obj

    def _eval_function(self, expr: js.FunctionExpr, env):
        return JSFunction(expr.name or "", expr.params, expr.body, env)

    def _eval_unary(self, expr: js.Unary, env):
        operand = self._eval(expr.operand, env)
        if expr.op == "!":
            phi = formula_of(operand)
            result = not _truthy(concrete_of(operand))
            if phi is not None:
                return Concolic(result, formula=neg(phi))
            return result
        if expr.op == "-":
            return -_to_number(operand, self)
        if expr.op == "typeof":
            return _js_typeof(operand)
        raise TypeError(f"unknown unary {expr.op}")

    def _eval_binary(self, expr: js.Binary, env):
        if expr.op in ("&&", "||"):
            left = self._eval(expr.left, env)
            self._branch_on(left, self._site(expr))
            left_truthy = _truthy(concrete_of(left))
            if expr.op == "&&":
                return self._eval(expr.right, env) if left_truthy else left
            return left if left_truthy else self._eval(expr.right, env)

        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return self._binary_value(expr.op, left, right)

    def _binary_value(self, op: str, left, right):
        lc, rc = concrete_of(left), concrete_of(right)
        if op == "+":
            if isinstance(lc, str) or isinstance(rc, str):
                ls, rs = _to_js_string(left), _to_js_string(right)
                result = ls + rs
                lt, rt = term_of(left), term_of(right)
                if (lt is not None or rt is not None) and isinstance(
                    lc, str
                ) and isinstance(rc, str):
                    term = concat_terms(
                        lt if lt is not None else StrConst(ls),
                        rt if rt is not None else StrConst(rs),
                    )
                    return Concolic(result, term=term)
                if lt is not None or rt is not None:
                    self.trace.concretizations += 1
                return result
            return _to_number(left, self) + _to_number(right, self)
        if op in ("===", "==", "!==", "!="):
            equal = _strict_equal(lc, rc)
            result = equal if op in ("===", "==") else not equal
            lt, rt = term_of(left), term_of(right)
            if isinstance(lc, (str, JSUndefined)) and isinstance(
                rc, (str, JSUndefined)
            ) and (lt is not None or rt is not None):
                phi = Eq(_as_term(left), _as_term(right))
                if op in ("!==", "!="):
                    phi = neg(phi)
                return Concolic(result, formula=phi)
            return result
        if op in ("<", "<=", ">", ">="):
            if isinstance(lc, str) and isinstance(rc, str):
                if term_of(left) is not None or term_of(right) is not None:
                    self.trace.concretizations += 1
                table = {
                    "<": lc < rc, "<=": lc <= rc,
                    ">": lc > rc, ">=": lc >= rc,
                }
                return table[op]
            ln, rn = _to_number(left, self), _to_number(right, self)
            table = {
                "<": ln < rn, "<=": ln <= rn, ">": ln > rn, ">=": ln >= rn,
            }
            return table[op]
        if op in ("-", "*", "/", "%"):
            ln, rn = _to_number(left, self), _to_number(right, self)
            if op == "-":
                return ln - rn
            if op == "*":
                return ln * rn
            if op == "/":
                return ln / rn if rn != 0 else float("inf")
            return ln % rn if rn != 0 else float("nan")
        raise TypeError(f"unknown operator {op}")

    def _eval_conditional(self, expr: js.Conditional, env):
        condition = self._eval(expr.test, env)
        self._branch_on(condition, self._site(expr))
        if _truthy(concrete_of(condition)):
            return self._eval(expr.then, env)
        return self._eval(expr.otherwise, env)

    def _eval_assign(self, expr: js.Assign, env):
        value = self._eval(expr.value, env)
        if expr.op in ("+=", "-="):
            current = self._eval(expr.target, env)
            op = "+" if expr.op == "+=" else "-"
            value = self._binary_value(op, current, value)
        target = expr.target
        if isinstance(target, js.Identifier):
            env.assign(target.name, value)
        elif isinstance(target, js.Member):
            obj = self._eval(target.obj, env)
            self._set_member(obj, target.name, value)
        elif isinstance(target, js.Index):
            obj = self._eval(target.obj, env)
            index = self._eval(target.index, env)
            self._set_index(obj, index, value)
        return value

    def _set_member(self, obj, name: str, value) -> None:
        if isinstance(obj, JSRegExpValue) and name == "lastIndex":
            obj.last_index = int(concrete_of(value))
        elif isinstance(obj, JSObject):
            obj.set(name, value)
        else:
            raise JSException(f"cannot set property {name}")

    def _set_index(self, obj, index, value) -> None:
        idx = concrete_of(index)
        if isinstance(obj, JSArray) and isinstance(idx, (int, float)):
            obj.set_index(int(idx), value)
        elif isinstance(obj, JSObject):
            obj.set(str(idx), value)
        else:
            raise JSException("cannot index-assign")

    def _eval_call(self, expr: js.Call, env):
        # Method call: evaluate receiver once.
        if isinstance(expr.callee, js.Member):
            receiver = self._eval(expr.callee.obj, env)
            args = [self._eval(a, env) for a in expr.args]
            return self._invoke_method(
                receiver, expr.callee.name, args, expr
            )
        callee = self._eval(expr.callee, env)
        args = [self._eval(a, env) for a in expr.args]
        return self._invoke(callee, args)

    def _eval_new(self, expr: js.New, env):
        callee = self._eval(expr.callee, env)
        args = [self._eval(a, env) for a in expr.args]
        if isinstance(callee, NativeFunction) and callee.name == "RegExp":
            return callee.fn(*args)
        return self._invoke(callee, args)

    def _eval_member(self, expr: js.Member, env):
        obj = self._eval(expr.obj, env)
        return self._get_member(obj, expr.name, expr)

    def _eval_index(self, expr: js.Index, env):
        obj = self._eval(expr.obj, env)
        index = self._eval(expr.index, env)
        idx = concrete_of(index)
        if isinstance(obj, JSArray) and isinstance(idx, (int, float)):
            return obj.get_index(int(idx))
        if isinstance(obj, JSObject):
            return obj.get(str(idx))
        base = concrete_of(obj)
        if isinstance(base, str) and isinstance(idx, (int, float)):
            if term_of(obj) is not None:
                self.trace.concretizations += 1
            i = int(idx)
            return base[i] if 0 <= i < len(base) else UNDEFINED
        raise JSException("cannot index value")

    # -- member/method semantics -----------------------------------------------------

    def _get_member(self, obj, name: str, expr):
        base = concrete_of(obj)
        if isinstance(base, str):
            if name == "length":
                if term_of(obj) is not None:
                    self.trace.concretizations += 1
                return float(len(base))
            return _BoundStringMethod(self, obj, name)
        if isinstance(obj, JSRegExpValue):
            if name == "lastIndex":
                return float(obj.last_index)
            if name == "source":
                return obj.symbolic.source
            return _BoundRegexMethod(self, obj, name)
        if isinstance(obj, JSArray) and name in (
            "push", "pop", "join", "indexOf", "slice",
        ):
            return _BoundArrayMethod(self, obj, name)
        if isinstance(obj, JSObject):
            return obj.get(name)
        if isinstance(base, JSUndefined):
            raise JSException(
                f"cannot read property {name!r} of undefined"
            )
        raise JSException(f"no property {name!r}")

    def _invoke(self, callee, args):
        if isinstance(callee, NativeFunction):
            return callee.fn(*args)
        if isinstance(callee, (_BoundStringMethod, _BoundRegexMethod,
                               _BoundArrayMethod)):
            return callee(*args)
        if isinstance(callee, JSFunction):
            env = Environment(callee.env)
            for i, param in enumerate(callee.params):
                env.declare(param, args[i] if i < len(args) else UNDEFINED)
            env.declare("arguments", JSArray(list(args)))
            # The body block is executed inline (its own statement id
            # still counts as covered).
            self.trace.covered.add(callee.body.sid)
            try:
                self._exec_block_body(callee.body.body, env)
            except _Return as ret:
                return ret.value
            return UNDEFINED
        raise JSException(f"{callee!r} is not a function")

    def _invoke_method(self, receiver, name, args, expr):
        member = self._get_member(receiver, name, expr)
        if isinstance(member, (_BoundStringMethod, _BoundRegexMethod,
                               _BoundArrayMethod)):
            return member(*args, site=self._site(expr))
        return self._invoke(member, args)

    # -- symbolic branching -------------------------------------------------------------

    def _branch_on(self, condition, site: int) -> None:
        """Record a symbolic branch if the condition carries a formula.

        A symbolic *string* used as a condition branches on JavaScript
        truthiness: truthy iff neither empty nor undefined."""
        phi = formula_of(condition)
        if phi is None:
            term = term_of(condition)
            if term is None:
                return
            from repro.constraints import Undef, conj as conj_

            phi = conj_(
                [neg(Eq(term, StrConst(""))), neg(Eq(term, Undef()))]
            )
        taken = _truthy(concrete_of(condition))
        sides = {True: (phi, ()), False: (neg(phi), ())}
        self.trace.branches.append(
            BranchRecord(site=site, polarity=taken, side=sides.__getitem__)
        )

    def record_regex_branch(
        self,
        site: int,
        matched: bool,
        exec_model,
    ) -> None:
        """Record the fork of a regex operation (§3.2's Lc clauses)."""
        self.trace.branches.append(
            BranchRecord(site=site, polarity=matched, side=exec_model.side)
        )

    def _site(self, expr) -> int:
        key = id(expr)
        if key not in self._site_ids:
            self._site_ids[key] = next(self._site_counter)
        return self._site_ids[key]

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise _StepLimit()

    _EVAL = {
        js.Literal: _eval_literal,
        js.Undefined: _eval_undefined,
        js.RegexLiteral: _eval_regex,
        js.Identifier: _eval_identifier,
        js.ArrayLiteral: _eval_array,
        js.ObjectLiteral: _eval_object,
        js.FunctionExpr: _eval_function,
        js.Unary: _eval_unary,
        js.Binary: _eval_binary,
        js.Conditional: _eval_conditional,
        js.Assign: _eval_assign,
        js.Call: _eval_call,
        js.New: _eval_new,
        js.Member: _eval_member,
        js.Index: _eval_index,
    }


class _AssertionFailure(Exception):
    pass


class _StepLimit(Exception):
    pass


# -- bound methods ------------------------------------------------------------


class _BoundRegexMethod:
    """``regexp.test`` / ``regexp.exec`` with symbolic semantics (§6.1)."""

    def __init__(self, interp: Interpreter, regexp: JSRegExpValue, name: str):
        self.interp = interp
        self.regexp = regexp
        self.name = name

    def __call__(self, subject=UNDEFINED, site: int = -1):
        interp = self.interp
        if self.name not in ("test", "exec"):
            raise JSException(f"RegExp has no method {self.name!r}")
        interp.trace.regex_ops += 1
        subject_term = term_of(subject)
        subject_str = _to_js_string(subject)
        offset = self.regexp.last_index if (
            self.regexp.symbolic.flags.sticky
            or self.regexp.symbolic.flags.global_
        ) else 0
        concrete = self.regexp.symbolic.exec(subject_str)

        symbolic_ok = (
            subject_term is not None
            and interp.level != RegexSupportLevel.CONCRETE
            and offset == 0  # nonzero offsets concretize
        )
        if not symbolic_ok:
            if subject_term is not None:
                interp.trace.concretizations += 1
            return self._concrete_result(concrete)

        model = self.regexp.symbolic.exec_model(subject_term, offset)
        interp.record_regex_branch(site, concrete is not None, model)
        if concrete is None:
            return False if self.name == "test" else UNDEFINED
        if self.name == "test":
            return True
        return self._symbolic_exec_array(concrete, model)

    def _concrete_result(self, concrete):
        if self.name == "test":
            return concrete is not None
        if concrete is None:
            return UNDEFINED
        return _exec_array(concrete, symbolic_caps=None)

    def _symbolic_exec_array(self, concrete, model):
        with_captures = self.interp.level in (
            RegexSupportLevel.CAPTURES,
            RegexSupportLevel.REFINED,
        )
        caps = model.captures if with_captures else None
        return _exec_array(concrete, symbolic_caps=caps)


def _exec_array(concrete, symbolic_caps):
    array = JSArray()
    for i, value in enumerate(concrete):
        if value is None:
            element = UNDEFINED
        else:
            element = value
        if symbolic_caps is not None and i in symbolic_caps:
            element = Concolic(
                UNDEFINED if value is None else value,
                term=symbolic_caps[i],
            )
        array.elements.append(element)
    array.set("index", float(concrete.index))
    array.set("input", concrete.input)
    return array


class _BoundStringMethod:
    """String prototype methods; regex-accepting ones fork symbolically."""

    def __init__(self, interp: Interpreter, value, name: str):
        self.interp = interp
        self.value = value
        self.name = name

    def __call__(self, *args, site: int = -1):
        interp = self.interp
        base = _to_js_string(self.value)
        term = term_of(self.value)
        name = self.name

        if name in ("match", "search", "split", "replace") and args and (
            isinstance(args[0], JSRegExpValue)
        ):
            return self._regex_method(base, term, args, site)

        # Pure-string methods: symbolic concatenation stays symbolic,
        # everything else concretizes (with accounting).
        if name == "concat":
            result = self.value
            for arg in args:
                result = interp._binary_value("+", result, arg)
            return result
        if term is not None:
            interp.trace.concretizations += 1
        str_args = [concrete_of(a) for a in args]
        if name == "indexOf":
            return float(base.find(str(str_args[0]) if str_args else ""))
        if name == "charAt":
            i = int(str_args[0]) if str_args else 0
            return base[i] if 0 <= i < len(base) else ""
        if name == "charCodeAt":
            i = int(str_args[0]) if str_args else 0
            return float(ord(base[i])) if 0 <= i < len(base) else float("nan")
        if name in ("slice", "substring"):
            start = int(str_args[0]) if str_args else 0
            end = int(str_args[1]) if len(str_args) > 1 else len(base)
            if name == "substring":
                start, end = max(0, start), max(0, end)
                if start > end:
                    start, end = end, start
            return base[start:end]
        if name == "toLowerCase":
            return base.lower()
        if name == "toUpperCase":
            return base.upper()
        if name == "trim":
            return base.strip()
        if name == "split":
            sep = str(str_args[0]) if str_args else None
            parts = base.split(sep) if sep else [base]
            return JSArray(list(parts))
        if name == "replace":
            if len(str_args) >= 2:
                return base.replace(str(str_args[0]), str(str_args[1]), 1)
            return base
        if name == "startsWith":
            return base.startswith(str(str_args[0]) if str_args else "")
        if name == "endsWith":
            return base.endswith(str(str_args[0]) if str_args else "")
        if name == "includes":
            return (str(str_args[0]) if str_args else "") in base
        if name == "repeat":
            return base * int(str_args[0] if str_args else 0)
        if name == "toString":
            return base
        raise JSException(f"string has no method {name!r}")

    def _regex_method(self, base, term, args, site):
        """match/search/split/replace with a regex: fork on match, then
        concretize the structural result (partial models, §6.1)."""
        interp = self.interp
        regexp: JSRegExpValue = args[0]
        interp.trace.regex_ops += 1
        concrete = regexp.symbolic.exec(base)
        if term is not None and interp.level != RegexSupportLevel.CONCRETE:
            model = regexp.symbolic.exec_model(term, 0)
            interp.record_regex_branch(site, concrete is not None, model)
            symbolic_caps = (
                model.captures
                if interp.level
                in (RegexSupportLevel.CAPTURES, RegexSupportLevel.REFINED)
                else None
            )
        else:
            if term is not None:
                interp.trace.concretizations += 1
            symbolic_caps = None

        from repro.regex import methods as regex_methods

        name = self.name
        fresh = regexp.symbolic.concrete  # stateless concrete twin
        if name == "match":
            if not fresh.flags.global_:
                if concrete is None:
                    return None
                return _exec_array(concrete, symbolic_caps)
            result = regex_methods.match(fresh, base)
            return None if result is None else JSArray(list(result))
        if name == "search":
            return float(regex_methods.search(fresh, base))
        if name == "split":
            limit = (
                int(concrete_of(args[1])) if len(args) > 1 else None
            )
            parts = regex_methods.split(fresh, base, limit)
            return JSArray(
                [UNDEFINED if p is None else p for p in parts]
            )
        if name == "replace":
            replacement = str(concrete_of(args[1])) if len(args) > 1 else ""
            return regex_methods.replace(fresh, base, replacement)
        raise JSException(f"unsupported regex method {name!r}")


class _BoundArrayMethod:
    def __init__(self, interp: Interpreter, array: JSArray, name: str):
        self.interp = interp
        self.array = array
        self.name = name

    def __call__(self, *args, site: int = -1):
        if self.name == "push":
            self.array.elements.extend(args)
            return float(len(self.array.elements))
        if self.name == "pop":
            return self.array.elements.pop() if self.array.elements \
                else UNDEFINED
        if self.name == "join":
            sep = str(concrete_of(args[0])) if args else ","
            return sep.join(
                _to_js_string(el) for el in self.array.elements
            )
        if self.name == "indexOf":
            target = concrete_of(args[0]) if args else UNDEFINED
            for i, el in enumerate(self.array.elements):
                if _strict_equal(concrete_of(el), target):
                    return float(i)
            return -1.0
        if self.name == "slice":
            start = int(concrete_of(args[0])) if args else 0
            end = int(concrete_of(args[1])) if len(args) > 1 \
                else len(self.array.elements)
            return JSArray(self.array.elements[start:end])
        raise JSException(f"array has no method {self.name!r}")


# -- JS semantics helpers ------------------------------------------------------


def _js_typeof(value) -> str:
    base = concrete_of(value)
    if isinstance(base, JSUndefined):
        return "undefined"
    if isinstance(base, bool):
        return "boolean"
    if isinstance(base, (int, float)):
        return "number"
    if isinstance(base, str):
        return "string"
    if isinstance(base, (JSFunction, NativeFunction)):
        return "function"
    return "object"  # null, objects, arrays, regexes


def _truthy(value) -> bool:
    if isinstance(value, JSUndefined) or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return value != ""
    return True  # objects, arrays, functions, regexes


def _strict_equal(a, b) -> bool:
    if isinstance(a, JSUndefined) and isinstance(b, JSUndefined):
        return True
    if isinstance(a, JSUndefined) or isinstance(b, JSUndefined):
        return False
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if type(a) is type(b) or (isinstance(a, str) and isinstance(b, str)):
        return a == b
    return a is b


def _to_js_string(value) -> str:
    base = concrete_of(value)
    if isinstance(base, str):
        return base
    if isinstance(base, bool):
        return "true" if base else "false"
    if isinstance(base, (int, float)):
        if isinstance(base, float) and base.is_integer():
            return str(int(base))
        return str(base)
    if isinstance(base, JSUndefined):
        return "undefined"
    if base is None:
        return "null"
    if isinstance(base, JSArray):
        return ",".join(_to_js_string(el) for el in base.elements)
    return str(base)


def _to_number(value, interp: Optional[Interpreter] = None) -> float:
    base = concrete_of(value)
    if isinstance(base, bool):
        return 1.0 if base else 0.0
    if isinstance(base, (int, float)):
        return float(base)
    if isinstance(base, str):
        if interp is not None and term_of(value) is not None:
            interp.trace.concretizations += 1
        try:
            return float(base) if base.strip() else 0.0
        except ValueError:
            return float("nan")
    if base is None:
        return 0.0
    return float("nan")


def _as_term(value) -> Term:
    term = term_of(value)
    if term is not None:
        return term
    base = concrete_of(value)
    if isinstance(base, JSUndefined):
        from repro.constraints import Undef

        return Undef()
    return StrConst(_to_js_string(value))
