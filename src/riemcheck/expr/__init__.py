"""Expression-tree core: parse, differentiate, evaluate, simplify, compile."""

from .nodes import (
    Add,
    Binary,
    Const,
    Cos,
    Div,
    DomainError,
    Exp,
    Expr,
    ExprError,
    Log,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    Unary,
    Var,
    as_expr,
    differentiate,
    evaluate,
    simplify,
    substitute,
    to_str,
    variables,
)
from .parser import ParseError, parse
from .tape import Tape, backend_name

__all__ = [
    "Add", "Binary", "Const", "Cos", "Div", "DomainError", "Exp", "Expr",
    "ExprError", "Log", "Mul", "Neg", "ParseError", "Pow", "Sin", "Sqrt",
    "Sub", "Tape", "Unary", "Var", "as_expr", "backend_name",
    "differentiate", "evaluate", "parse", "simplify",
    "substitute", "to_str", "variables",
]
