"""The algebra document language.

Algebras come in through a small line-oriented language:

    field GF(3)
    dim 3
    basis e1 e2 e3
    [e1,e2] = e3
    subspace Z = span(e3)

or through a preset invocation like ``preset example34(3)``.
:func:`parse_document` reads a document into a ``BuiltAlgebra`` and
:func:`render_document` writes one back in explicit form.
"""

import re

from .corpus import BuiltAlgebra, build as build_preset
from .errors import (
    DuplicateBracketError,
    LieIdealsError,
    ParseError,
    UnknownLabelError,
)
from .exactfield import GF, RationalField, field_from_name
from .liecore import LieAlgebra

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_BRACKET_RE = re.compile(r"\[\s*([^\[\],]+?)\s*,\s*([^\[\],]+?)\s*\]\s*=\s*(.*)\Z")
_SUBSPACE_RE = re.compile(r"subspace\s+(\S+)\s*=\s*span\((.*)\)\s*\Z")
_CALL_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[(),])")
MAX_CALL_DEPTH = 100  # preset parsing and evaluation recurse once per level


def _strip_comment(line):
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _column(line, fragment, start=0):
    pos = line.find(fragment, start)
    return pos + 1 if pos >= 0 else 1


def _parse_combination(f, text, label_index, dim, line_no, line_text):
    """A sum of scalar*label terms (bare labels mean coefficient one) into
    a coordinate vector.  The single literal 0 is the zero vector."""
    s = text.strip()
    if s == "0":
        return (f.zero,) * dim
    if not s:
        raise ParseError("empty linear combination", line_no, _column(line_text, text))
    # rewrite binary minus as plus-negative, then split into signed terms
    pieces = []
    cur = ""
    sign = 1
    for ch in s:
        if ch == "+" or ch == "-":
            if cur.strip():
                pieces.append((sign, cur.strip()))
                cur = ""
                sign = 1
            if ch == "-":
                sign = -sign
        else:
            cur += ch
    if cur.strip():
        pieces.append((sign, cur.strip()))
    if not pieces:
        raise ParseError("empty linear combination", line_no, _column(line_text, text))
    vec = [f.zero] * dim
    for sgn, piece in pieces:
        if "*" in piece:
            scalar_text, _, label = piece.partition("*")
            label = label.strip()
            try:
                coeff = f.parse(scalar_text.strip())
            except LieIdealsError as e:
                raise ParseError(str(e), line_no, _column(line_text, piece)) from None
        else:
            label = piece
            coeff = f.one
        if label not in label_index:
            raise UnknownLabelError(
                f"unknown basis label {label!r}",
                line_no,
                _column(line_text, label),
            )
        if sgn < 0:
            coeff = f.norm(-coeff)
        k = label_index[label]
        vec[k] = f.norm(vec[k] + coeff)
    return tuple(vec)


def _parse_call(text, line_no):
    """``name(arg, ...)`` with integer or nested-call arguments."""
    tokens = []
    pos = 0
    while pos < len(text):
        mt = _CALL_TOKEN_RE.match(text, pos)
        if mt is None:
            if text[pos:].strip():
                raise ParseError(
                    f"bad preset syntax near {text[pos:].strip()!r}", line_no
                )
            break
        tokens.append(mt.group(1))
        pos = mt.end()

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take(expected=None):
        nonlocal idx
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            want = expected or "a token"
            raise ParseError(f"expected {want} in preset invocation", line_no)
        idx += 1
        return tok

    def parse_node(depth):
        tok = take()
        if tok.isdecimal():
            return int(tok)
        if not _LABEL_RE.match(tok):
            raise ParseError(f"bad preset token {tok!r}", line_no)
        if depth == MAX_CALL_DEPTH:
            raise ParseError(f"preset nesting exceeds {MAX_CALL_DEPTH} calls", line_no)
        take("(")
        args = []
        if peek() != ")":
            args.append(parse_node(depth + 1))
            while peek() == ",":
                take(",")
                args.append(parse_node(depth + 1))
        take(")")
        return (tok, args)

    node = parse_node(0)
    if idx != len(tokens):
        raise ParseError("trailing text after preset invocation", line_no)
    if isinstance(node, int):
        raise ParseError("preset invocation must be a call", line_no)
    return node


def _eval_call(node, f, line_no):
    name, raw_args = node
    args = [
        a if isinstance(a, int) else _eval_call(a, f, line_no) for a in raw_args
    ]
    return build_preset(name, f, *args)


def parse_document(text):
    """Parse an algebra document into a BuiltAlgebra.

    Raises ParseError (or a subclass) with line information on bad syntax,
    JacobiError if the declared table is not a Lie algebra.
    """
    field_line = dim_line = basis_line = preset_line = None
    bracket_lines = []
    subspace_lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "field":
            if field_line is not None:
                raise ParseError("duplicate field line", no)
            field_line = (no, line)
        elif head == "dim":
            if dim_line is not None:
                raise ParseError("duplicate dim line", no)
            dim_line = (no, line)
        elif head == "basis":
            if basis_line is not None:
                raise ParseError("duplicate basis line", no)
            basis_line = (no, line)
        elif head == "preset":
            if preset_line is not None:
                raise ParseError("duplicate preset line", no)
            preset_line = (no, line)
        elif head == "subspace":
            subspace_lines.append((no, line))
        elif line.startswith("["):
            bracket_lines.append((no, line))
        else:
            raise ParseError(f"unrecognized statement {head!r}", no, 1)

    f = None
    if field_line is not None:
        no, line = field_line
        name = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
        try:
            f = field_from_name(name)
        except LieIdealsError as e:
            raise ParseError(str(e), no, _column(line, name)) from None

    if preset_line is not None:
        no, line = preset_line
        if dim_line or basis_line or bracket_lines:
            raise ParseError(
                "preset documents cannot also declare dim, basis or brackets", no
            )
        call = _parse_call(line[len("preset"):], no)
        if f is None:
            if call[0] == "example34" and call[1] and isinstance(call[1][0], int):
                f = GF(call[1][0])
            else:
                raise ParseError("preset document needs a field line", no)
        built = _eval_call(call, f, no)
    else:
        if f is None:
            raise ParseError("missing field line")
        if dim_line is None:
            raise ParseError("missing dim line")
        no, line = dim_line
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdecimal():
            raise ParseError("dim takes one non-negative integer", no)
        dim = int(parts[1])
        if basis_line is not None:
            no, line = basis_line
            labels = line.split()[1:]
            if len(labels) != dim:
                raise ParseError(
                    f"basis declares {len(labels)} labels for dim {dim}", no
                )
            for lab in labels:
                if not _LABEL_RE.match(lab):
                    raise ParseError(
                        f"bad label {lab!r}", no, _column(line, lab)
                    )
            if len(set(labels)) != dim:
                raise ParseError("duplicate basis label", no)
        else:
            labels = [f"e{i + 1}" for i in range(dim)]
        label_index = {lab: i for i, lab in enumerate(labels)}

        brackets = {}
        for no, line in bracket_lines:
            mt = _BRACKET_RE.match(line)
            if mt is None:
                raise ParseError("malformed bracket line", no, 1)
            a, b, rhs = mt.group(1), mt.group(2), mt.group(3)
            for lab in (a, b):
                if lab not in label_index:
                    raise UnknownLabelError(
                        f"unknown basis label {lab!r}", no, _column(line, lab)
                    )
            i, j = label_index[a], label_index[b]
            vec = _parse_combination(f, rhs, label_index, dim, no, line)
            if i == j:
                if any(c != f.zero for c in vec):
                    raise ParseError(
                        f"[{a},{a}] must be 0 by antisymmetry", no, 1
                    )
                continue
            key = (i, j) if i < j else (j, i)
            if key in brackets:
                raise DuplicateBracketError(
                    f"bracket [{a},{b}] defined twice", no, 1
                )
            if i > j:
                vec = tuple(f.norm(-a) for a in vec)
            brackets[key] = vec
        algebra = LieAlgebra(f, dim, brackets, labels=labels)
        built = BuiltAlgebra(algebra)

    L = built.algebra
    label_index = {lab: i for i, lab in enumerate(L.labels)}
    for no, line in subspace_lines:
        mt = _SUBSPACE_RE.match(line)
        if mt is None:
            raise ParseError("malformed subspace line", no, 1)
        name, body = mt.group(1), mt.group(2)
        if not _LABEL_RE.match(name):
            raise ParseError(f"bad subspace name {name!r}", no, _column(line, name))
        if name in built.subspaces:
            raise ParseError(f"duplicate subspace name {name!r}", no, 1)
        vectors = []
        if body.strip():
            for part in body.split(","):
                vectors.append(
                    _parse_combination(f, part, label_index, L.dim, no, line)
                )
        built.subspaces[name] = L.span(vectors)
    return built


def render_document(built):
    """Serialize back to the document language (explicit form, never a
    preset line); parsing the result reproduces the same table."""
    L = built.algebra if isinstance(built, BuiltAlgebra) else built
    f = L.field

    def scalar(c):
        if isinstance(f, RationalField) and c.denominator == 1:
            return str(c.numerator)
        return f.format(c)

    def combo(vec):
        terms = []
        for i, c in enumerate(vec):
            if c == f.zero:
                continue
            lab = L.labels[i]
            terms.append(lab if c == f.one else f"{scalar(c)}*{lab}")
        return " + ".join(terms) if terms else "0"

    lines = [f"field {f!r}", f"dim {L.dim}", "basis " + " ".join(L.labels)]
    doc = L.to_json()
    for ent in doc["brackets"]:
        i, j = ent["i"] - 1, ent["j"] - 1
        vec = tuple(f.parse(a) for a in ent["coeffs"])
        lines.append(f"[{L.labels[i]},{L.labels[j]}] = {combo(vec)}")
    if isinstance(built, BuiltAlgebra):
        for name in sorted(built.subspaces):
            rows = built.subspaces[name].rows
            body = ", ".join(combo(r) for r in rows)
            lines.append(f"subspace {name} = span({body})")
    return "\n".join(lines) + "\n"
