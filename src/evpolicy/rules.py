"""Threshold-rule language: parser, type checker and evaluators.

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
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import RuleParseError
from .pydriver import DECISION_INPUTS

_FIELD = dict(DECISION_INPUTS)  # variable name -> Observation attribute
OBSERVATION_FIELDS = tuple(_FIELD)
FORECAST_FUNCS = ("fc_max", "fc_min", "fc_mean")
NUMERIC_FUNCS = ("min", "max")

_KEYWORDS = ("if", "then", "and", "or", "not")
_CMP_OPS = ("<=", ">=", "==", "!=", "<", ">")
_BOOL_OPS = frozenset(("and", "or", "not") + _CMP_OPS)  # yield a bool

# Binary operator -> (type both operands must have, the complaint otherwise).
_OPERANDS = {
    **dict.fromkeys(("or", "and"), ("bool", "needs boolean operands")),
    **dict.fromkeys(_CMP_OPS, ("num", "compares numbers")),
    **dict.fromkeys("+-*/", ("num", "needs numeric operands")),
}

# A script is untrusted, so the parser bounds how deep it nests. Then parsing,
# both evaluators and dataclass ==/hash/repr stay below the interpreter's
# default recursion limit of 1000 frames. MAX_RULE_DEPTH bounds the nodes on
# any path from a condition or action to a leaf. MAX_RULE_NESTING bounds the
# open '(', calls, unary '-' and 'not' at any point of the source; each level
# costs the parser eight frames (nine for a call), so on Python 3.11 the
# deepest accepted script takes about 560 frames to parse, 140 to repr and 70
# to evaluate.
MAX_RULE_DEPTH = 32
MAX_RULE_NESTING = 64


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
class Unary:
    op: str  # - not
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / < <= > >= == != and or
    left: object
    right: object


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

    @cached_property
    def compiled(self):
        """The script as one Python function of an observation, whose only
        builtin is ``float`` (see :func:`_function_source`); built on first
        use and kept on the script, not a field, so ==, hash and repr
        ignore it."""
        source, constants = _function_source(self)
        namespace = {"__builtins__": {"float": float}}
        exec(compile(source, "<rule script>", "exec"), namespace)
        return namespace["factory"](*_HELPERS.values(), *constants)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | punct | eof
    text: str
    line: int
    col: int


# One alternative per token kind, tried in order. \d and \w are Unicode
# classes: \d is a decimal digit, which float() reads; \w is a character
# that passes str.isalnum(), or '_'.
_TOKEN_RE = re.compile(r"""
    (?P<skip>[ \t\r]+|\#[^\n]*)       # blanks, or a comment to end of line
  | (?P<newline>\n)
  | (?P<op><=|>=|==|!=|[<>+\-*/])
  | (?P<punct>[(),;])
  | (?P<num>\d[\d.]*|\.\d[\d.]*)
  | (?P<ident>\w+)                     # its first character is checked below
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the line's first char
    for match in _TOKEN_RE.finditer(source):
        kind, text = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad" or (kind == "ident" and not (
                text[0].isalpha() or text[0] == "_")):
            raise RuleParseError(f"unexpected character {text[0]!r}",
                                 line, col, text[0])
        elif kind == "num" and text.count(".") > 1:
            raise RuleParseError(f"malformed number {text!r}", line, col, text)
        elif kind != "skip":
            tokens.append(_Token(kind, text, line, col))
    # End of input sits where a comment on the last line starts: any '#'
    # outside a comment is an unexpected character.
    end = source.find("#", line_start)
    tokens.append(_Token("eof", "", line,
                         (len(source) if end < 0 else end) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent) with inline type checking
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # id(node) -> depth of each inner node. Every node stays referenced
        # until the parse ends, so no id is reused meanwhile.
        self._depths: dict[int, int] = {}
        self._nesting = 0

    def _node(self, node, tok: _Token, *children):
        """Record the depth of ``node``, whose children are ``children``
        (a leaf, unrecorded, has depth 1), and return it; fail at ``tok``
        past MAX_RULE_DEPTH. Chains of '+', 'and' etc. are built in loops,
        so only this check keeps a long chain from nesting without bound."""
        depths = self._depths
        depth = 1 + max([depths.get(id(c), 1) for c in children])
        if depth > MAX_RULE_DEPTH:
            raise RuleParseError(
                f"expression nests deeper than {MAX_RULE_DEPTH} levels",
                tok.line, tok.col, tok.text)
        depths[id(node)] = depth
        return node

    def _enter(self, tok: _Token) -> None:
        """Open one '(', call, '-' or 'not' level; fail past MAX_RULE_NESTING
        before the parser recurses into it."""
        self._nesting += 1
        if self._nesting > MAX_RULE_NESTING:
            raise RuleParseError(
                f"more than {MAX_RULE_NESTING} nested parentheses, calls, "
                "'-' or 'not'", tok.line, tok.col, tok.text)

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

    # One method per precedence level, loosest first. Each level calls the
    # next from its own frame, so a '(' costs one frame per level.

    def parse_expr(self):
        node = self.parse_and()
        while self.cur.text == "or":
            node = self._binary(self.advance(), node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.cur.text == "and":
            node = self._binary(self.advance(), node, self.parse_not())
        return node

    def parse_not(self):
        if self.cur.text == "not":
            return self._prefix(self.parse_not, "bool",
                                "'not' needs a boolean operand")
        return self.parse_comparison()

    def parse_comparison(self):
        node = self.parse_sum()
        if self.cur.text in _CMP_OPS:
            node = self._binary(self.advance(), node, self.parse_sum())
        return node

    def parse_sum(self):
        node = self.parse_term()
        while self.cur.text in ("+", "-"):
            node = self._binary(self.advance(), node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.cur.text in ("*", "/"):
            node = self._binary(self.advance(), node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.cur.text == "-":
            return self._prefix(self.parse_unary, "num",
                                "unary '-' needs a numeric operand")
        return self.parse_atom()

    def _binary(self, tok: _Token, left, right) -> Binary:
        """``left tok right``, its operand types checked."""
        expected, complaint = _OPERANDS[tok.text]
        if type_of(left) != expected or type_of(right) != expected:
            raise self._fail(f"'{tok.text}' {complaint}")
        return self._node(Binary(tok.text, left, right), tok, left, right)

    def _prefix(self, parse_operand, expected: str, complaint: str) -> Unary:
        """The current '-' or 'not' applied to what ``parse_operand`` reads."""
        tok = self.advance()
        self._enter(tok)
        operand = parse_operand()
        self._nesting -= 1
        if type_of(operand) != expected:
            raise self._fail(complaint)
        return self._node(Unary(tok.text, operand), tok, operand)

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.text == "(":
            self.advance()
            self._enter(tok)
            node = self.parse_expr()
            self.expect(")")
            self._nesting -= 1
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
        self._enter(tok)
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect(")")
        self._nesting -= 1
        arity = 1 if name in FORECAST_FUNCS else 2
        if len(args) != arity:
            raise RuleParseError(f"{name} takes {arity} argument(s)",
                                 tok.line, tok.col, name)
        for a in args:
            if type_of(a) != "num":
                raise RuleParseError(f"{name} needs numeric arguments",
                                     tok.line, tok.col, name)
        return self._node(Call(name, tuple(args)), tok, *args)


def type_of(node) -> str:
    if isinstance(node, (Unary, Binary)):
        return "bool" if node.op in _BOOL_OPS else "num"
    if isinstance(node, (Num, Var, Call)):
        return "num"
    raise TypeError(f"not an AST node: {node!r}")


def parse_rule_script(source_text: str) -> RuleScript:
    """Parse a rule script. Raises :class:`RuleParseError` with line/column."""
    return _Parser(_tokenize(source_text)).parse_script()


# ---------------------------------------------------------------------------
# Evaluators: a generated function, and the tree walker it is tested against
# ---------------------------------------------------------------------------

class _EvalFault(Exception):
    pass


def _divide(left, right):
    if right == 0:
        raise _EvalFault("division by zero")
    return left / right


def _mean(window):
    return sum(window) / len(window)


def _aggregate(obs, reduce, value):
    """``reduce`` over the first ``min(h, horizon)`` forecast values, where
    ``h`` is ``value`` rounded; a horizon that is not finite or is below 1
    is a fault."""
    if not math.isfinite(value):
        raise _EvalFault(f"non-finite forecast horizon {value!r}")
    h = int(round(value))
    if h < 1:
        raise _EvalFault(f"forecast horizon {h} < 1")
    return reduce(obs.forecast.head(h))


# Constant-horizon aggregates are memoized in ``forecast.tables``, which
# one column and horizon share (see PriceForecast.window). Such a value
# depends only on those, the reduce, h and the window's start, so every
# script evaluated on a trace, in rollouts and in fit scoring alike, shares
# one table per key (reduce, h): a list indexed by start, None until first
# read.
def _memo(forecast, key):
    """``reduce(forecast.head(h))`` for ``key`` (reduce, h), read from its
    table in ``forecast.tables`` and stored there on the first read."""
    tables, start = forecast.tables, forecast.start
    table = tables.get(key)
    if table is None:
        table = tables[key] = [None] * len(forecast.column)
    value = table[start]
    if value is None:
        reduce, h = key
        value = table[start] = reduce(forecast.head(h))
    return value


# What the generated function reads besides ``obs`` and its constants: the
# factory's parameters, in this order. An aggregate's reduce goes by the
# rule language's name of it.
_HELPERS = {"min": min, "max": max, "fc_max": max, "fc_min": min,
            "fc_mean": _mean, "div": _divide, "agg": _aggregate,
            "memo": _memo}


def _expr(node, constants: list) -> str:
    """Python source of ``node`` as an expression of ``obs``, evaluating
    operands in :func:`_eval`'s order and raising its faults.

    No text of the script is copied: the ``i``-th constant is appended to
    ``constants`` and read as ``c<i>``, a variable is the attribute that
    ``_FIELD`` names, and operators and calls are checked against the
    parser's fixed sets. A constant is one of the script's numbers, or the
    memo key (reduce, h) of a constant-horizon aggregate, appended once
    however many times the script reads it.
    """
    def recurse(child):
        return _expr(child, constants)
    if isinstance(node, Num):
        constants.append(node.value)
        return f"c{len(constants) - 1}"
    if isinstance(node, Var):
        return f"obs.{_FIELD[node.name]}"
    if isinstance(node, Unary):
        prefix = "not " if node.op == "not" else "-"
        return f"({prefix}{recurse(node.operand)})"
    if isinstance(node, Binary):
        if node.op not in _OPERANDS:
            raise TypeError(f"not an operator: {node.op!r}")
        left, right = recurse(node.left), recurse(node.right)
        if node.op == "/" and not (isinstance(node.right, Num)
                                   and node.right.value != 0):
            return f"div({left}, {right})"  # a divisor that may be zero
        return f"({left} {node.op} {right})"
    if isinstance(node, Call):
        if node.name not in FORECAST_FUNCS + NUMERIC_FUNCS:
            raise TypeError(f"not a function: {node.name!r}")
        horizon = node.args[0]
        if (node.name in FORECAST_FUNCS and isinstance(horizon, Num)
                and math.isfinite(horizon.value)
                and int(round(horizon.value)) >= 1):  # checked once
            key = (_HELPERS[node.name], int(round(horizon.value)))
            if key not in constants:
                constants.append(key)
            return f"memo(obs.forecast, c{constants.index(key)})"
        args = ", ".join(map(recurse, node.args))
        if node.name in FORECAST_FUNCS:
            return f"agg(obs, {node.name}, {args})"
        return f"{node.name}({args})"
    raise TypeError(f"not an AST node: {node!r}")


def _function_source(script: RuleScript) -> tuple[str, list]:
    """Source of a factory whose parameters are :data:`_HELPERS` and the
    script's constants ``c0, c1, ...`` (its numbers and memo keys, see
    :func:`_expr`), and those constants. The factory returns
    ``decide(obs)``: the first matching rule's action as a float, or 0.0.
    ``decide`` keeps nothing between calls.
    """
    constants: list = []
    body = "".join(f"        if {_expr(rule.condition, constants)}:\n"
                   "            return float("
                   f"{_expr(rule.action, constants)})\n"
                   for rule in script.rules)
    params = ", ".join([*_HELPERS, *(f"c{i}" for i in range(len(constants)))])
    return (f"def factory({params}):\n    def decide(obs):\n{body}"
            "        return 0.0\n    return decide\n", constants)


def _eval(node, obs):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return getattr(obs, _FIELD[node.name])
    if isinstance(node, Unary):
        value = _eval(node.operand, obs)
        return -value if node.op == "-" else not value
    if isinstance(node, Binary):
        op, left = node.op, _eval(node.left, obs)
        if op == "and":
            return left and _eval(node.right, obs)
        if op == "or":
            return left or _eval(node.right, obs)
        right = _eval(node.right, obs)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise _EvalFault("division by zero")
            return left / right
        return {"<": left < right, "<=": left <= right, ">": left > right,
                ">=": left >= right, "==": left == right,
                "!=": left != right}[op]
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
    """First matching rule decides; runtime faults yield 0 and are logged.

    Runs the script's generated function (:attr:`RuleScript.compiled`), and
    checks and logs as :func:`evaluate_rules_reference` does.
    """
    try:
        value = script.compiled(obs)
        if math.isfinite(value):
            return value
        raise _EvalFault(f"non-finite action value {value!r}")
    except _EvalFault as fault:
        if fault_log is not None:
            fault_log.append(f"step {obs.step_index}: {fault}")
        return 0.0


def evaluate_rules_reference(script: RuleScript, obs,
                             fault_log: list | None = None) -> float:
    """:func:`evaluate_rules` by walking the tree at every call: the
    specification the compiled path is tested against."""
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
