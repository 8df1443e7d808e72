"""OpenCL C frontend: tokenizer, typed AST and recursive-descent parser.

This is the first stage of the kernel IR pipeline (ISSUE 5): it turns
the OpenCL C subset used by the shipped dwarf kernels into a typed AST
that :mod:`repro.analysis.cfg` and :mod:`repro.analysis.absint` analyse
*soundly*, replacing the regex heuristics of the original lint pass.

The subset is deliberately the language of ``repro.dwarfs.kernels_cl``:
scalar/vector arithmetic, ``if``/``for``/``while``/``return``, local
array declarations, calls, subscripts, member access (``.x``), casts and
vector constructors (``(float2)(re, im)``).  Anything outside it raises
:class:`CLSyntaxError` — a :class:`~repro.ocl.clsource.CLSourceError`
subclass carrying the offending line and column.

The pretty-printer is the frontend's own correctness witness: for every
shipped kernel, ``tokenize(print_program(parse_source(src)))`` must
yield the same token sequence as ``tokenize(src)`` (asserted in the
golden-parse tests).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..ocl.clsource import CLSourceError

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

#: Token kinds produced by :func:`tokenize`.
KIND_ID = "id"
KIND_NUM = "num"
KIND_STR = "str"
KIND_CHAR = "char"
KIND_PUNCT = "punct"

_PREPROC_RE = re.compile(r"^[ \t]*#[^\n]*", re.M)

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<num>
          0[xX][0-9a-fA-F]+[uUlL]*
        | (?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?
        | \d+[eE][+-]?\d+[fF]?
        | \d+(?:[fF]|[uUlL]*)
      )
    | (?P<id>[A-Za-z_]\w*)
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<char>'(?:\\.|[^'\\\n])*')
    | (?P<punct>
          <<=|>>=|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
        | [+\-*/%&|^]=
        | [-+*/%<>=!&|^~?:;,.(){}\[\]]
      )
    """,
    re.X | re.S,
)


class CLSyntaxError(CLSourceError):
    """Tokenizer/parser failure, located at ``line``/``col`` (1-based)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position."""

    kind: str
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact, for parser error messages
        """Render as ``kind:'text'@line:col``."""
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def tokenize(source: str) -> list[Token]:
    """Tokenize OpenCL C, dropping comments and preprocessor lines.

    String and character literals become single tokens (so identifier
    text inside them can never be mistaken for a use — the PR 3 lint
    false positive).  Raises :class:`CLSyntaxError` on any character
    outside the language.
    """
    blanked = _PREPROC_RE.sub(lambda m: " " * len(m.group(0)), source)
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(blanked):
        match = _TOKEN_RE.match(blanked, pos)
        if match is None:
            raise CLSyntaxError(
                f"unexpected character {blanked[pos]!r}",
                line, pos - line_start + 1,
            )
        text = match.group(0)
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(
                kind=str(kind), text=text,
                line=line, col=pos - line_start + 1,
            ))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = match.end()
    return tokens


#: The tokenizer's non-code alternates, reused for position-preserving
#: stripping: comments and string/char literals (in that order, so a
#: ``//`` inside a string does not start a comment and vice versa).
_NONCODE_RE = re.compile(
    r"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'""",
    re.S,
)


def strip_noncode(text: str) -> str:
    """Blank comments and string/char literals, preserving positions.

    Every non-code character (except newlines, kept for line numbers)
    becomes a space, so byte offsets, line and column numbers are
    unchanged.  This is the comment/string stripping the regex lint
    checks route through: an identifier inside a comment or literal can
    no longer count as a "use".
    """
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return _NONCODE_RE.sub(blank, text)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: Byte width of every scalar type in the subset.
SCALAR_SIZEOF = {
    "bool": 1, "char": 1, "uchar": 1,
    "short": 2, "ushort": 2,
    "int": 4, "uint": 4, "float": 4,
    "long": 8, "ulong": 8, "double": 8,
    "size_t": 8, "void": 0,
}

_VECTOR_RE = re.compile(
    r"^(char|uchar|short|ushort|int|uint|long|ulong|float|double)"
    r"(2|3|4|8|16)$"
)

#: Address-space and access qualifiers legal before a type.
QUALIFIER_NAMES = frozenset({
    "__global", "global", "__local", "local", "__constant", "constant",
    "__private", "private", "const", "restrict", "volatile",
    "__read_only", "__write_only", "read_only", "write_only",
})


def is_type_name(name: str) -> bool:
    """Whether ``name`` spells a scalar or vector type of the subset."""
    return name in SCALAR_SIZEOF or _VECTOR_RE.match(name) is not None


def type_sizeof(name: str) -> int:
    """Byte width of a scalar or vector type name.

    Vector types follow the OpenCL rule that a 3-vector is stored like
    a 4-vector.  Unknown names raise :class:`CLSourceError`.
    """
    if name in SCALAR_SIZEOF:
        return SCALAR_SIZEOF[name]
    match = _VECTOR_RE.match(name)
    if match is None:
        raise CLSourceError(f"unknown OpenCL C type {name!r}")
    lanes = int(match.group(2))
    if lanes == 3:
        lanes = 4
    return SCALAR_SIZEOF[match.group(1)] * lanes


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Node:
    """Base class for every AST node (expressions and statements)."""


class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Ident(Expr):
    """A name use."""

    name: str


@dataclass
class IntLit(Expr):
    """Integer literal; ``text`` preserves the source spelling."""

    value: int
    text: str


@dataclass
class FloatLit(Expr):
    """Floating literal; ``text`` preserves the source spelling."""

    value: float
    text: str


@dataclass
class StrLit(Expr):
    """String or character literal (spelling kept verbatim)."""

    text: str


@dataclass
class Paren(Expr):
    """An explicitly parenthesised expression (kept for round-trip)."""

    inner: Expr


@dataclass
class Unary(Expr):
    """Prefix (``-x``, ``!x``, ``~x``, ``++x``) or postfix (``x++``)."""

    op: str
    operand: Expr
    prefix: bool = True


@dataclass
class Bin(Expr):
    """A binary operator application."""

    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Assign(Expr):
    """Assignment, plain (``=``) or compound (``+=``, ``>>=``, ...)."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Cond(Expr):
    """The ternary ``cond ? then : other``."""

    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Call(Expr):
    """A function call; ``func`` is the callee name."""

    func: str
    args: list[Expr]
    line: int = 0


@dataclass
class Index(Expr):
    """Array subscript ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    """Member access ``base.name`` (vector components)."""

    base: Expr
    name: str


@dataclass
class Cast(Expr):
    """A C cast ``(type) operand``."""

    type_name: str
    operand: Expr


@dataclass
class VectorCtor(Expr):
    """OpenCL vector constructor ``(float2)(re, im)``."""

    type_name: str
    args: list[Expr]


class Stmt(Node):
    """Base class for statement nodes."""


@dataclass
class Declarator:
    """One name in a declaration: ``name[array]... = init``."""

    name: str
    array_sizes: list[Expr] = field(default_factory=list)
    init: Expr | None = None


@dataclass
class Decl(Stmt):
    """A declaration statement: qualifiers, a type, declarators."""

    quals: tuple[str, ...]
    type_name: str
    declarators: list[Declarator]
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (assignment, call, ...)."""

    expr: Expr
    line: int = 0


@dataclass
class If(Stmt):
    """An ``if``/``else`` statement."""

    cond: Expr
    then: Stmt
    orelse: Stmt | None = None
    line: int = 0


@dataclass
class For(Stmt):
    """A ``for`` loop; ``init`` may be a declaration."""

    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: Stmt
    line: int = 0


@dataclass
class While(Stmt):
    """A ``while`` loop."""

    cond: Expr
    body: Stmt
    line: int = 0


@dataclass
class Return(Stmt):
    """A ``return`` statement (kernels return void)."""

    value: Expr | None = None
    line: int = 0


@dataclass
class Block(Stmt):
    """A brace-delimited statement list."""

    stmts: list[Stmt]
    line: int = 0


@dataclass
class ParamDecl:
    """One kernel parameter, with its exact token spelling preserved."""

    tokens: tuple[str, ...]
    type_name: str
    name: str
    is_pointer: bool
    address_space: str  # global / local / constant / private

    @property
    def is_buffer(self) -> bool:
        """Whether this is a global/constant pointer (a device buffer)."""
        return self.is_pointer and self.address_space in ("global", "constant")


@dataclass
class KernelDef:
    """A parsed ``__kernel void name(...) { ... }`` definition."""

    name: str
    params: list[ParamDecl]
    body: Block
    reqd_work_group_size: tuple[int, int, int] | None = None
    line: int = 0

    def param(self, name: str) -> ParamDecl:
        """Look up a parameter by name (raises ``KeyError`` if absent)."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass
class ProgramAST:
    """A parsed translation unit: the kernels of one ``.cl`` source."""

    kernels: list[KernelDef]

    def kernel(self, name: str) -> KernelDef:
        """Look up a kernel by name (raises ``KeyError`` if absent)."""
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: Binary operator precedence (C), higher binds tighter.
_BIN_PREC = {
    "*": 10, "/": 10, "%": 10,
    "+": 9, "-": 9,
    "<<": 8, ">>": 8,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "==": 6, "!=": 6,
    "&": 5, "^": 4, "|": 3,
    "&&": 2, "||": 1,
}

_ASSIGN_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
})

_PREFIX_OPS = frozenset({"+", "-", "!", "~", "++", "--"})


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.pos = 0
        # position of the last token, for EOF errors
        if tokens:
            last = tokens[-1]
            self._eof = (last.line, last.col + len(last.text))
        else:
            self._eof = (1, 1)

    # -- token plumbing -------------------------------------------------
    def peek(self, offset: int = 0) -> Token | None:
        """The token ``offset`` ahead, or ``None`` at end of input."""
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> Token:
        """Consume and return the next token."""
        token = self.peek()
        if token is None:
            line, col = self._eof
            raise CLSyntaxError("unexpected end of input", line, col)
        self.pos += 1
        return token

    def at(self, text: str) -> bool:
        """Whether the next token has exactly this text."""
        token = self.peek()
        return token is not None and token.text == text

    def accept(self, text: str) -> bool:
        """Consume the next token iff its text matches."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        """Consume the next token, failing loudly if it differs."""
        token = self.peek()
        if token is None:
            line, col = self._eof
            raise CLSyntaxError(f"expected {text!r}, got end of input",
                                line, col)
        if token.text != text:
            raise CLSyntaxError(
                f"expected {text!r}, got {token.text!r}",
                token.line, token.col,
            )
        self.pos += 1
        return token

    def error(self, message: str) -> CLSyntaxError:
        """Build a syntax error at the current token."""
        token = self.peek()
        if token is None:
            line, col = self._eof
        else:
            line, col = token.line, token.col
        return CLSyntaxError(message, line, col)

    # -- translation unit ----------------------------------------------
    def parse_program(self) -> ProgramAST:
        """Parse the whole source: a sequence of kernel definitions."""
        kernels: list[KernelDef] = []
        while self.peek() is not None:
            kernels.append(self.parse_kernel())
        return ProgramAST(kernels=kernels)

    def parse_kernel(self) -> KernelDef:
        """Parse one ``__kernel void name(params) { body }``."""
        start = self.peek()
        assert start is not None
        if start.text not in ("__kernel", "kernel"):
            raise self.error(
                f"expected '__kernel', got {start.text!r}"
            )
        self.next()
        reqd = self._parse_attributes()
        self.expect("void")
        name_tok = self.next()
        if name_tok.kind != KIND_ID:
            raise CLSyntaxError(
                f"expected kernel name, got {name_tok.text!r}",
                name_tok.line, name_tok.col,
            )
        self.expect("(")
        params: list[ParamDecl] = []
        if not self.at(")"):
            params.append(self._parse_param())
            while self.accept(","):
                params.append(self._parse_param())
        self.expect(")")
        if reqd is None:
            reqd = self._parse_attributes()
        body = self.parse_block()
        return KernelDef(name=name_tok.text, params=params, body=body,
                         reqd_work_group_size=reqd, line=start.line)

    def _parse_attributes(self) -> tuple[int, int, int] | None:
        """Parse ``__attribute__((reqd_work_group_size(x,y,z)))`` if present."""
        reqd: tuple[int, int, int] | None = None
        while self.at("__attribute__"):
            self.next()
            self.expect("(")
            self.expect("(")
            attr = self.next()
            self.expect("(")
            args: list[int] = []
            while not self.at(")"):
                tok = self.next()
                if tok.kind == KIND_NUM:
                    args.append(int(tok.text.rstrip("uUlL"), 0))
                if not self.at(")"):
                    self.expect(",")
            self.expect(")")
            self.expect(")")
            self.expect(")")
            if attr.text == "reqd_work_group_size" and len(args) == 3:
                reqd = (args[0], args[1], args[2])
        return reqd

    def _parse_param(self) -> ParamDecl:
        """Parse one parameter, keeping its exact token spelling."""
        tokens: list[str] = []
        quals: list[str] = []
        type_name: str | None = None
        name: str | None = None
        is_pointer = False
        while not self.at(",") and not self.at(")"):
            token = self.next()
            tokens.append(token.text)
            if token.text == "*":
                is_pointer = True
            elif token.text in QUALIFIER_NAMES:
                quals.append(token.text)
            elif token.kind == KIND_ID:
                if type_name is None:
                    type_name = token.text
                elif name is None:
                    name = token.text
                else:
                    raise CLSyntaxError(
                        f"unexpected token {token.text!r} in parameter",
                        token.line, token.col,
                    )
            else:
                raise CLSyntaxError(
                    f"unexpected token {token.text!r} in parameter",
                    token.line, token.col,
                )
        if type_name is None or name is None:
            raise self.error("incomplete kernel parameter")
        address_space = "private"
        for qual in quals:
            cleaned = qual.lstrip("_")
            if cleaned in ("global", "local", "constant", "private"):
                address_space = cleaned
        return ParamDecl(
            tokens=tuple(tokens), type_name=type_name, name=name,
            is_pointer=is_pointer,
            address_space=address_space if is_pointer else "private",
        )

    # -- statements -----------------------------------------------------
    def parse_block(self) -> Block:
        """Parse ``{ stmt* }``."""
        brace = self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return Block(stmts=stmts, line=brace.line)

    def _at_decl(self) -> bool:
        """Whether the upcoming tokens start a declaration."""
        token = self.peek()
        if token is None or token.kind != KIND_ID:
            return False
        if token.text in QUALIFIER_NAMES:
            return True
        # `type name` — a type keyword followed by an identifier
        nxt = self.peek(1)
        return (
            is_type_name(token.text)
            and nxt is not None
            and nxt.kind == KIND_ID
        )

    def parse_stmt(self) -> Stmt:
        """Parse one statement."""
        token = self.peek()
        if token is None:
            raise self.error("expected a statement")
        if token.text == "{":
            return self.parse_block()
        if token.text == "if":
            return self._parse_if()
        if token.text == "for":
            return self._parse_for()
        if token.text == "while":
            return self._parse_while()
        if token.text == "return":
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(value=value, line=token.line)
        if self._at_decl():
            decl = self._parse_decl()
            self.expect(";")
            return decl
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr=expr, line=token.line)

    def _parse_if(self) -> If:
        """Parse ``if (cond) stmt [else stmt]``."""
        token = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_stmt()
        orelse = self.parse_stmt() if self.accept("else") else None
        return If(cond=cond, then=then, orelse=orelse, line=token.line)

    def _parse_for(self) -> For:
        """Parse ``for (init; cond; step) stmt``."""
        token = self.expect("for")
        self.expect("(")
        init: Stmt | None = None
        if not self.at(";"):
            if self._at_decl():
                init = self._parse_decl()
            else:
                first = self.peek()
                assert first is not None
                init = ExprStmt(expr=self.parse_expr(), line=first.line)
        self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        step = None if self.at(")") else self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return For(init=init, cond=cond, step=step, body=body,
                   line=token.line)

    def _parse_while(self) -> While:
        """Parse ``while (cond) stmt``."""
        token = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return While(cond=cond, body=body, line=token.line)

    def _parse_decl(self) -> Decl:
        """Parse ``quals type declarator (, declarator)*`` (no ``;``)."""
        start = self.peek()
        assert start is not None
        quals: list[str] = []
        while True:
            token = self.peek()
            if token is not None and token.text in QUALIFIER_NAMES:
                quals.append(self.next().text)
            else:
                break
        type_tok = self.next()
        if type_tok.kind != KIND_ID:
            raise CLSyntaxError(
                f"expected a type name, got {type_tok.text!r}",
                type_tok.line, type_tok.col,
            )
        declarators = [self._parse_declarator()]
        while self.accept(","):
            declarators.append(self._parse_declarator())
        return Decl(quals=tuple(quals), type_name=type_tok.text,
                    declarators=declarators, line=start.line)

    def _parse_declarator(self) -> Declarator:
        """Parse ``name ([size])* (= init)?``."""
        name_tok = self.next()
        if name_tok.kind != KIND_ID:
            raise CLSyntaxError(
                f"expected a declared name, got {name_tok.text!r}",
                name_tok.line, name_tok.col,
            )
        array_sizes: list[Expr] = []
        while self.accept("["):
            array_sizes.append(self.parse_expr())
            self.expect("]")
        init = self._parse_assign() if self.accept("=") else None
        return Declarator(name=name_tok.text, array_sizes=array_sizes,
                          init=init)

    # -- expressions ----------------------------------------------------
    def parse_expr(self) -> Expr:
        """Parse a full expression (assignment level, no comma operator)."""
        return self._parse_assign()

    def _parse_assign(self) -> Expr:
        expr = self._parse_ternary()
        token = self.peek()
        if token is not None and token.text in _ASSIGN_OPS:
            self.next()
            value = self._parse_assign()  # right-associative
            return Assign(op=token.text, target=expr, value=value)
        return expr

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(1)
        if self.accept("?"):
            then = self._parse_assign()
            self.expect(":")
            other = self._parse_assign()
            return Cond(cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        lhs = self._parse_unary()
        while True:
            token = self.peek()
            if token is None:
                return lhs
            prec = _BIN_PREC.get(token.text)
            if prec is None or prec < min_prec:
                return lhs
            self.next()
            rhs = self._parse_binary(prec + 1)
            lhs = Bin(op=token.text, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> Expr:
        token = self.peek()
        if token is not None and token.text in _PREFIX_OPS:
            self.next()
            operand = self._parse_unary()
            return Unary(op=token.text, operand=operand, prefix=True)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            token = self.peek()
            if token is None:
                return expr
            if token.text == "[":
                self.next()
                index = self.parse_expr()
                self.expect("]")
                expr = Index(base=expr, index=index)
            elif token.text == ".":
                self.next()
                member = self.next()
                if member.kind != KIND_ID:
                    raise CLSyntaxError(
                        f"expected a member name, got {member.text!r}",
                        member.line, member.col,
                    )
                expr = Member(base=expr, name=member.text)
            elif token.text == "(" and isinstance(expr, Ident):
                self.next()
                args: list[Expr] = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                expr = Call(func=expr.name, args=args, line=token.line)
            elif token.text in ("++", "--"):
                self.next()
                expr = Unary(op=token.text, operand=expr, prefix=False)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token is None:
            raise self.error("expected an expression")
        if token.text == "(":
            # cast, vector constructor, or parenthesised expression
            nxt = self.peek(1)
            after = self.peek(2)
            if (
                nxt is not None and nxt.kind == KIND_ID
                and is_type_name(nxt.text)
                and after is not None and after.text == ")"
            ):
                self.next()
                type_name = self.next().text
                self.expect(")")
                if _VECTOR_RE.match(type_name) and self.at("("):
                    self.next()
                    args = [self.parse_expr()]
                    while self.accept(","):
                        args.append(self.parse_expr())
                    self.expect(")")
                    return VectorCtor(type_name=type_name, args=args)
                return Cast(type_name=type_name,
                            operand=self._parse_unary())
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return Paren(inner=inner)
        if token.kind == KIND_NUM:
            self.next()
            return _make_number(token)
        if token.kind in (KIND_STR, KIND_CHAR):
            self.next()
            return StrLit(text=token.text)
        if token.kind == KIND_ID:
            self.next()
            return Ident(name=token.text)
        raise self.error(f"unexpected token {token.text!r}")


def _make_number(token: Token) -> Expr:
    """Build an :class:`IntLit` or :class:`FloatLit` from a num token."""
    text = token.text
    lowered = text.lower()
    if lowered.startswith("0x"):
        return IntLit(value=int(lowered.rstrip("ul"), 16), text=text)
    if "." in text or "e" in lowered.strip("f") or lowered.endswith("f"):
        return FloatLit(value=float(lowered.rstrip("f")), text=text)
    return IntLit(value=int(lowered.rstrip("ul")), text=text)


def parse_source(source: str) -> ProgramAST:
    """Tokenize and parse one OpenCL C source string."""
    return _Parser(tokenize(source), source).parse_program()


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


def _expr_tokens(expr: Expr, out: list[str]) -> None:
    """Append the token spelling of ``expr`` to ``out``."""
    if isinstance(expr, Ident):
        out.append(expr.name)
    elif isinstance(expr, (IntLit, FloatLit, StrLit)):
        out.append(expr.text)
    elif isinstance(expr, Paren):
        out.append("(")
        _expr_tokens(expr.inner, out)
        out.append(")")
    elif isinstance(expr, Unary):
        if expr.prefix:
            out.append(expr.op)
            _expr_tokens(expr.operand, out)
        else:
            _expr_tokens(expr.operand, out)
            out.append(expr.op)
    elif isinstance(expr, Bin):
        _expr_tokens(expr.lhs, out)
        out.append(expr.op)
        _expr_tokens(expr.rhs, out)
    elif isinstance(expr, Assign):
        _expr_tokens(expr.target, out)
        out.append(expr.op)
        _expr_tokens(expr.value, out)
    elif isinstance(expr, Cond):
        _expr_tokens(expr.cond, out)
        out.append("?")
        _expr_tokens(expr.then, out)
        out.append(":")
        _expr_tokens(expr.other, out)
    elif isinstance(expr, Call):
        out.append(expr.func)
        out.append("(")
        for i, arg in enumerate(expr.args):
            if i:
                out.append(",")
            _expr_tokens(arg, out)
        out.append(")")
    elif isinstance(expr, Index):
        _expr_tokens(expr.base, out)
        out.append("[")
        _expr_tokens(expr.index, out)
        out.append("]")
    elif isinstance(expr, Member):
        _expr_tokens(expr.base, out)
        out.append(".")
        out.append(expr.name)
    elif isinstance(expr, Cast):
        out.extend(["(", expr.type_name, ")"])
        _expr_tokens(expr.operand, out)
    elif isinstance(expr, VectorCtor):
        out.extend(["(", expr.type_name, ")", "("])
        for i, arg in enumerate(expr.args):
            if i:
                out.append(",")
            _expr_tokens(arg, out)
        out.append(")")
    else:  # pragma: no cover - exhaustive over the AST
        raise TypeError(f"unknown expression node {type(expr).__name__}")


def _stmt_lines(stmt: Stmt, indent: int, out: list[str]) -> None:
    """Append the pretty-printed lines of ``stmt`` to ``out``."""
    pad = "    " * indent
    if isinstance(stmt, Block):
        out.append(pad + "{")
        for inner in stmt.stmts:
            _stmt_lines(inner, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(stmt, Decl):
        out.append(pad + _decl_text(stmt) + ";")
    elif isinstance(stmt, ExprStmt):
        tokens: list[str] = []
        _expr_tokens(stmt.expr, tokens)
        out.append(pad + " ".join(tokens) + ";")
    elif isinstance(stmt, Return):
        if stmt.value is None:
            out.append(pad + "return;")
        else:
            tokens = []
            _expr_tokens(stmt.value, tokens)
            out.append(pad + "return " + " ".join(tokens) + ";")
    elif isinstance(stmt, If):
        tokens = []
        _expr_tokens(stmt.cond, tokens)
        out.append(pad + "if (" + " ".join(tokens) + ")")
        _body_lines(stmt.then, indent, out)
        if stmt.orelse is not None:
            out.append(pad + "else")
            _body_lines(stmt.orelse, indent, out)
    elif isinstance(stmt, For):
        init = ""
        if isinstance(stmt.init, Decl):
            init = _decl_text(stmt.init)
        elif isinstance(stmt.init, ExprStmt):
            tokens = []
            _expr_tokens(stmt.init.expr, tokens)
            init = " ".join(tokens)
        cond = ""
        if stmt.cond is not None:
            tokens = []
            _expr_tokens(stmt.cond, tokens)
            cond = " " + " ".join(tokens)
        step = ""
        if stmt.step is not None:
            tokens = []
            _expr_tokens(stmt.step, tokens)
            step = " " + " ".join(tokens)
        out.append(pad + f"for ({init};{cond};{step})")
        _body_lines(stmt.body, indent, out)
    elif isinstance(stmt, While):
        tokens = []
        _expr_tokens(stmt.cond, tokens)
        out.append(pad + "while (" + " ".join(tokens) + ")")
        _body_lines(stmt.body, indent, out)
    else:  # pragma: no cover - exhaustive over the AST
        raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _body_lines(stmt: Stmt, indent: int, out: list[str]) -> None:
    """Print a branch/loop body: blocks keep braces, lone stmts indent.

    Braces are never *added* — that would break the token-equivalence
    guarantee of the round-trip test.
    """
    if isinstance(stmt, Block):
        _stmt_lines(stmt, indent, out)
    else:
        _stmt_lines(stmt, indent + 1, out)


def _decl_text(decl: Decl) -> str:
    """Render a declaration without the trailing semicolon."""
    parts = list(decl.quals) + [decl.type_name]
    decls: list[str] = []
    for d in decl.declarators:
        text = d.name
        for size in d.array_sizes:
            tokens: list[str] = []
            _expr_tokens(size, tokens)
            text += "[" + " ".join(tokens) + "]"
        if d.init is not None:
            tokens = []
            _expr_tokens(d.init, tokens)
            text += " = " + " ".join(tokens)
        decls.append(text)
    return " ".join(parts) + " " + ", ".join(decls)


def print_kernel(kernel: KernelDef) -> str:
    """Pretty-print one kernel back to (token-equivalent) OpenCL C."""
    params = ", ".join(" ".join(p.tokens) for p in kernel.params)
    lines = [f"__kernel void {kernel.name}({params})"]
    if kernel.reqd_work_group_size is not None:
        x, y, z = kernel.reqd_work_group_size
        lines[0] = (
            f"__kernel __attribute__((reqd_work_group_size({x}, {y}, {z}))) "
            f"void {kernel.name}({params})"
        )
    _stmt_lines(kernel.body, 0, lines)
    return "\n".join(lines)


def print_program(program: ProgramAST) -> str:
    """Pretty-print a whole translation unit."""
    return "\n\n".join(print_kernel(k) for k in program.kernels) + "\n"


def token_texts(source: str) -> list[tuple[str, str]]:
    """The ``(kind, text)`` sequence of a source — round-trip witness."""
    return [(t.kind, t.text) for t in tokenize(source)]
