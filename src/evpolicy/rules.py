"""Threshold-rule language: parser, type checker, evaluator, pretty-printer.

A script is a sequence of ``if <condition> then <power expression>`` rules.
The first rule whose condition holds decides the signed kW output; an implicit
final rule yields 0. Conditions and expressions may reference the observation
fields, arithmetic, comparisons, boolean connectives, min/max, and the
forecast aggregates fc_max(h), fc_min(h), fc_mean(h).

The language is deliberately stateless and loop-free so every policy stays
auditable and terminates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RuleParseError

OBSERVATION_FIELDS = (
    "charge_price", "discharge_price", "soc", "ttd",
    "load_kw", "pv_kw", "max_charge_kw", "max_discharge_kw",
)
FORECAST_FUNCS = ("fc_max", "fc_min", "fc_mean")
NUMERIC_FUNCS = ("min", "max")

_KEYWORDS = ("if", "then", "and", "or", "not")
_CMP_OPS = ("<=", ">=", "==", "!=", "<", ">")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class Rule:
    condition: object
    action: object


@dataclass(frozen=True)
class RuleScript:
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | punct | eof
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        two = source[i:i + 2]
        if two in ("<=", ">=", "==", "!="):
            tokens.append(_Token("op", two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "<>+-*/(),;":
            kind = "punct" if ch in "(),;" else "op"
            tokens.append(_Token(kind, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            text = source[i:j]
            if text.count(".") > 1:
                raise RuleParseError(f"malformed number {text!r}", line, start_col, text)
            tokens.append(_Token("num", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise RuleParseError(f"unexpected character {ch!r}", line, start_col, ch)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent) with inline type checking
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str) -> RuleParseError:
        t = self.cur
        return RuleParseError(message, t.line, t.col, t.text)

    def advance(self) -> _Token:
        t = self.cur
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        if self.cur.text != text:
            raise self._fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.cur.text == text:
            self.advance()
            return True
        return False

    def parse_script(self) -> RuleScript:
        rules = []
        while self.accept(";"):
            pass
        while self.cur.kind != "eof":
            self.expect("if")
            cond = self.parse_expr()
            self._require("bool", cond, "rule condition")
            self.expect("then")
            action = self.parse_expr()
            self._require("num", action, "rule action")
            rules.append(Rule(condition=cond, action=action))
            while self.accept(";"):
                pass
        return RuleScript(rules=tuple(rules))

    def _require(self, expected: str, node, where: str) -> None:
        got = type_of(node)
        if got != expected:
            raise self._fail(f"{where} must be {expected}, found {got}")

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        node = self.parse_and()
        while self.cur.text == "or":
            self.advance()
            right = self.parse_and()
            self._check_bool_pair(node, right, "or")
            node = Or(node, right)
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.cur.text == "and":
            self.advance()
            right = self.parse_not()
            self._check_bool_pair(node, right, "and")
            node = And(node, right)
        return node

    def _check_bool_pair(self, left, right, op: str) -> None:
        for side in (left, right):
            if type_of(side) != "bool":
                raise self._fail(f"'{op}' needs boolean operands")

    def parse_not(self):
        if self.cur.text == "not":
            self.advance()
            operand = self.parse_not()
            if type_of(operand) != "bool":
                raise self._fail("'not' needs a boolean operand")
            return Not(operand)
        return self.parse_comparison()

    def parse_comparison(self):
        node = self.parse_sum()
        if self.cur.text in _CMP_OPS:
            op = self.advance().text
            right = self.parse_sum()
            for side in (node, right):
                if type_of(side) != "num":
                    raise self._fail(f"'{op}' compares numbers")
            return Cmp(op, node, right)
        return node

    def parse_sum(self):
        node = self.parse_term()
        while self.cur.text in ("+", "-"):
            op = self.advance().text
            right = self.parse_term()
            self._check_num_pair(node, right, op)
            node = Bin(op, node, right)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.cur.text in ("*", "/"):
            op = self.advance().text
            right = self.parse_unary()
            self._check_num_pair(node, right, op)
            node = Bin(op, node, right)
        return node

    def _check_num_pair(self, left, right, op: str) -> None:
        for side in (left, right):
            if type_of(side) != "num":
                raise self._fail(f"'{op}' needs numeric operands")

    def parse_unary(self):
        if self.cur.text == "-":
            self.advance()
            operand = self.parse_unary()
            if type_of(operand) != "num":
                raise self._fail("unary '-' needs a numeric operand")
            return Neg(operand)
        return self.parse_atom()

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            if name in _KEYWORDS:
                raise self._fail(f"unexpected keyword {name!r}")
            self.advance()
            if self.cur.text == "(":
                return self._parse_call(name, tok)
            if name not in OBSERVATION_FIELDS:
                raise RuleParseError(
                    f"unknown identifier {name!r}; observation fields are "
                    f"{', '.join(OBSERVATION_FIELDS)}", tok.line, tok.col, name)
            return Var(name)
        raise self._fail(f"unexpected token {tok.text!r}")

    def _parse_call(self, name: str, tok: _Token):
        if name not in FORECAST_FUNCS + NUMERIC_FUNCS:
            raise RuleParseError(f"unknown function {name!r}",
                                 tok.line, tok.col, name)
        self.expect("(")
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect(")")
        arity = 1 if name in FORECAST_FUNCS else 2
        if len(args) != arity:
            raise RuleParseError(f"{name} takes {arity} argument(s)",
                                 tok.line, tok.col, name)
        for a in args:
            if type_of(a) != "num":
                raise RuleParseError(f"{name} needs numeric arguments",
                                     tok.line, tok.col, name)
        return Call(name, tuple(args))


def type_of(node) -> str:
    if isinstance(node, (Num, Var, Neg, Bin, Call)):
        return "num"
    if isinstance(node, (Cmp, And, Or, Not)):
        return "bool"
    raise TypeError(f"not an AST node: {node!r}")


def parse_rule_script(source_text: str) -> RuleScript:
    """Parse a rule script. Raises :class:`RuleParseError` with line/column."""
    return _Parser(_tokenize(source_text)).parse_script()


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _fmt(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_fmt(node.operand)})"
    if isinstance(node, Bin):
        return f"({_fmt(node.left)} {node.op} {_fmt(node.right)})"
    if isinstance(node, Cmp):
        return f"({_fmt(node.left)} {node.op} {_fmt(node.right)})"
    if isinstance(node, And):
        return f"({_fmt(node.left)} and {_fmt(node.right)})"
    if isinstance(node, Or):
        return f"({_fmt(node.left)} or {_fmt(node.right)})"
    if isinstance(node, Not):
        return f"(not {_fmt(node.operand)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_fmt(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


def script_to_source(script: RuleScript) -> str:
    """Canonical text form; re-parsing yields a structurally identical AST."""
    return "\n".join(f"if {_fmt(r.condition)} then {_fmt(r.action)}"
                     for r in script.rules)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

class _EvalFault(Exception):
    pass


def _eval(node, obs):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "ttd":
            return obs.ttd_minutes
        return getattr(obs, node.name)
    if isinstance(node, Neg):
        return -_eval(node.operand, obs)
    if isinstance(node, Bin):
        left, right = _eval(node.left, obs), _eval(node.right, obs)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0:
            raise _EvalFault("division by zero")
        return left / right
    if isinstance(node, Cmp):
        left, right = _eval(node.left, obs), _eval(node.right, obs)
        return {"<": left < right, "<=": left <= right, ">": left > right,
                ">=": left >= right, "==": left == right,
                "!=": left != right}[node.op]
    if isinstance(node, And):
        return _eval(node.left, obs) and _eval(node.right, obs)
    if isinstance(node, Or):
        return _eval(node.left, obs) or _eval(node.right, obs)
    if isinstance(node, Not):
        return not _eval(node.operand, obs)
    if isinstance(node, Call):
        args = [_eval(a, obs) for a in node.args]
        if node.name == "min":
            return min(args)
        if node.name == "max":
            return max(args)
        values = obs.forecast.values
        if not math.isfinite(args[0]):
            raise _EvalFault(f"non-finite forecast horizon {args[0]!r}")
        h = int(round(args[0]))
        if h < 1:
            raise _EvalFault(f"forecast horizon {h} < 1")
        window = values[:min(h, len(values))]
        if node.name == "fc_max":
            return max(window)
        if node.name == "fc_min":
            return min(window)
        return sum(window) / len(window)
    raise TypeError(f"not an AST node: {node!r}")


def evaluate_rules(script: RuleScript, obs, fault_log: list | None = None) -> float:
    """First matching rule decides; runtime faults yield 0 and are logged."""
    try:
        for rule in script.rules:
            if _eval(rule.condition, obs):
                value = float(_eval(rule.action, obs))
                if not math.isfinite(value):
                    raise _EvalFault(f"non-finite action value {value!r}")
                return value
        return 0.0
    except _EvalFault as fault:
        if fault_log is not None:
            fault_log.append(f"step {obs.step_index}: {fault}")
        return 0.0
