"""MPS subset reader and writer.

Covers the sections the desk-scale study instances need: NAME, ROWS,
COLUMNS (with INTORG/INTEND markers), RHS, RANGES, BOUNDS, ENDATA.
Anything else raises, never skips silently.  All numeric fields are
parsed exactly; as an extension, "p/q" literals are accepted and are
emitted by the writer whenever a value has no terminating decimal.

Two conventions from the classic format are honored and worth knowing:

* MPS objectives are minimization.  The in-memory model maximizes, so
  reading negates the objective row and writing negates it back; a file
  round trips to an identical instance.
* Integer variables (inside markers) with no BOUNDS entry at all get
  the historic default bounds [0, 1].  Any explicit bound entry for the
  variable switches the default upper bound to +infinity before the
  entry is applied.  Continuous variables default to [0, +infinity).
* An UP bound with a negative value drops the default lower bound 0 of
  any variable, integer or continuous, to -infinity, unless some entry
  for that variable sets its lower bound (LO, LI, FX, MI, FR or BV),
  wherever that entry stands in the file.

G and E rows are rewritten to <= form on ingest (E as a pair), RANGES
turn a row into the usual interval and arrive as the extra <= row.  An
RHS (objective constant) or RANGES entry on the objective (N) row is a
parse error.
"""

from __future__ import annotations

from typing import Optional

from .model import MipInstance, build_instance
from .rational import parse_rational, rat, rat_str


class MpsParseError(ValueError):
    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


_SUPPORTED = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}

# Each bound type: (what it sets the lower bound to, what it sets the upper
# bound to, whether it makes the column integer).  "value" is the entry's
# value, None is infinite and "keep" leaves the bound as it was; a type
# that sets a bound to "value" takes a value field.
_BOUND_TYPES = {
    "UP": ("keep", "value", False),
    "LO": ("value", "keep", False),
    "FX": ("value", "value", False),
    "FR": (None, None, False),
    "MI": (None, "keep", False),
    "PL": ("keep", None, False),
    "BV": (0, 1, True),
    "UI": ("keep", "value", True),
    "LI": ("value", "keep", True),
}


def read_instance_mps(text: str) -> MipInstance:
    """Parse an MPS document into an instance.

    The name is the rest of the NAME line, stripped, and "unnamed" when
    that is empty.  Integer variables that appear in no BOUNDS entry
    take the historic bounds [0, 1].
    """
    name = ""
    section = None
    obj_row: Optional[str] = None
    row_types: dict[str, str] = {}  # the L, G and E rows, in file order
    columns: dict[str, dict[str, object]] = {}  # in file order; the N row's entries too
    integer_cols: set[str] = set()
    rhs: dict[str, object] = {}
    ranges: dict[str, object] = {}
    bound_entries: list[tuple[str, str, Optional[object], int]] = []
    in_integer_block = False
    saw_endata = False

    def number(token: str, line_no: int):
        try:
            return parse_rational(token)
        except ValueError as exc:
            raise MpsParseError(str(exc), line_no) from exc

    def row_values(fields: list[str], line_no: int):
        """The (row, value) pairs of a COLUMNS, RHS or RANGES line.  COLUMNS
        reads a value before it checks the row; RHS and RANGES check first."""
        if len(fields) < 3 or len(fields) % 2 == 0:
            head = "column" if section == "COLUMNS" else "a set name"
            raise MpsParseError(f"{section} entries come as {head} then row/value pairs", line_no)
        for row_name, token in zip(fields[1::2], fields[2::2]):
            value = number(token, line_no) if section == "COLUMNS" else None
            if section != "COLUMNS" and row_name == obj_row:
                what = "RHS (objective constant)" if section == "RHS" else "range"
                raise MpsParseError(f"objective-row {what} is unsupported", line_no)
            if row_name not in row_types and not (section == "COLUMNS" and row_name == obj_row):
                raise MpsParseError(f"unknown row {row_name!r}", line_no)
            yield row_name, number(token, line_no) if value is None else value

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if saw_endata:
            raise MpsParseError("content after ENDATA", line_no)
        if not raw[0].isspace():
            fields = raw.split()
            keyword = fields[0].upper()
            if keyword not in _SUPPORTED:
                raise MpsParseError(f"unsupported section {fields[0]!r}", line_no)
            section = keyword
            if keyword == "NAME":
                name = raw[len(fields[0]):].strip()
            if keyword == "ENDATA":
                saw_endata = True
            continue

        fields = raw.split()
        if section == "ROWS":
            if len(fields) != 2:
                raise MpsParseError("ROWS entries need a type and a name", line_no)
            rtype, rname = fields[0].upper(), fields[1]
            if rname in row_types or rname == obj_row:
                raise MpsParseError(f"duplicate row {rname!r}", line_no)
            if rtype == "N":
                if obj_row is not None:
                    raise MpsParseError("multiple free (N) rows", line_no)
                obj_row = rname
            elif rtype in ("L", "G", "E"):
                row_types[rname] = rtype
            else:
                raise MpsParseError(f"unknown row type {rtype!r}", line_no)
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].strip("'\"").upper() == "MARKER":
                marker = fields[-1].strip("'\"").upper()
                if marker == "INTORG":
                    in_integer_block = True
                elif marker == "INTEND":
                    in_integer_block = False
                else:
                    raise MpsParseError(f"unknown marker {marker!r}", line_no)
                continue
            cell = columns.setdefault(fields[0], {})
            for row_name, value in row_values(fields, line_no):
                cell[row_name] = cell.get(row_name, rat(0)) + value
            if in_integer_block:
                integer_cols.add(fields[0])
        elif section in ("RHS", "RANGES"):
            target = rhs if section == "RHS" else ranges
            for row_name, value in row_values(fields, line_no):
                target[row_name] = value
        elif section == "BOUNDS":
            btype = fields[0].upper()
            if btype not in _BOUND_TYPES:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            takes_value = "value" in _BOUND_TYPES[btype][:2]
            if len(fields) != 3 + takes_value:
                needs = "a set name, column and value" if takes_value else "a set name and a column"
                raise MpsParseError(f"{btype} bound needs {needs}", line_no)
            value = number(fields[3], line_no) if takes_value else None
            bound_entries.append((btype, fields[2], value, line_no))
        elif section == "NAME":
            raise MpsParseError("data outside any section", line_no)
        elif section is None:
            raise MpsParseError("data before the first section header", line_no)

    if obj_row is None:
        raise MpsParseError("no objective (N) row")
    if not saw_endata:
        raise MpsParseError("missing ENDATA")

    col_index = {c: j for j, c in enumerate(columns)}

    # bounds: defaults, then explicit entries in file order
    explicit = {col for _, col, _, _ in bound_entries}
    sets_lower = {col for btype, col, _, _ in bound_entries if _BOUND_TYPES[btype][0] != "keep"}
    lower: list[Optional[object]] = [rat(0)] * len(columns)
    upper: list[Optional[object]] = [
        rat(1) if col in integer_cols and col not in explicit else None for col in columns
    ]
    for btype, col, value, line_no in bound_entries:
        if col not in col_index:
            raise MpsParseError(f"bound for unknown column {col!r}", line_no)
        j = col_index[col]
        new_lower, new_upper, integral = _BOUND_TYPES[btype]
        if btype == "UP" and value < 0 and col not in sets_lower:
            lower[j] = None  # classic convention for negative upper bounds
        if new_lower != "keep":
            lower[j] = value if new_lower == "value" else new_lower
        if new_upper != "keep":
            upper[j] = value if new_upper == "value" else new_upper
        if integral:
            integer_cols.add(col)

    # each row to <= form: its upper side as is, its lower side negated,
    # the lower side first on a G row
    matrix_rows = []
    rhs_values = []
    for rname, rtype in row_types.items():
        coeffs = [cell.get(rname, rat(0)) for cell in columns.values()]
        lo = hi = rhs.get(rname, rat(0))
        rng = ranges.get(rname)
        if rtype == "L":
            lo = None if rng is None else hi - abs(rng)
        elif rtype == "G":
            hi = None if rng is None else lo + abs(rng)
        elif rng is not None:  # E: the range's sign says which side moves
            lo, hi = (lo + rng, hi) if rng < 0 else (lo, hi + rng)
        for sign, b in ((-1, lo), (1, hi)) if rtype == "G" else ((1, hi), (-1, lo)):
            if b is not None:
                matrix_rows.append(coeffs if sign > 0 else [-v for v in coeffs])
                rhs_values.append(sign * b)

    try:
        return build_instance(
            name=name or "unnamed",
            constraint_matrix=matrix_rows,
            rhs=rhs_values,
            objective=[-cell.get(obj_row, rat(0)) for cell in columns.values()],  # min file, max model
            integer_vars=[col_index[c] for c in integer_cols],
            lower_bounds=lower,
            upper_bounds=upper,
        )
    except ValueError as exc:  # "malformed instance: ..."
        raise MpsParseError(str(exc)) from exc


def _mps_number(value) -> str:
    """Exact decimal when it terminates, "p/q" otherwise."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    den = int(q.denominator)
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return rat_str(q)
    places = max(twos, fives)
    scaled = abs(int(q.numerator)) * 10**places // int(q.denominator)
    sign = "-" if q.numerator < 0 else ""
    digits = f"{scaled:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def write_instance_mps(inst: MipInstance) -> str:
    """Serialize to the MPS subset; reading it back yields an equal instance,
    its name included (`model.validate_instance` admits no name that the
    NAME line would change).

    Rows are emitted as L rows named r0..r{m-1}, columns as x0..x{n-1},
    the objective negated into minimization form, and every variable
    gets explicit bounds so no default rule is in play on re-read.
    """
    lines = [f"NAME {inst.name}", "ROWS", " N  obj"]
    for i in range(inst.num_constraints):
        lines.append(f" L  r{i}")
    lines.append("COLUMNS")
    in_block = False
    for j in range(inst.num_vars):
        is_int = j in inst.integer_vars
        if is_int and not in_block:
            lines.append("    m1  'MARKER'  'INTORG'")
            in_block = True
        elif not is_int and in_block:
            lines.append("    m2  'MARKER'  'INTEND'")
            in_block = False
        entries = [("obj", _mps_number(-inst.objective[j]))]
        for i, row in enumerate(inst.constraint_matrix):
            if row[j] != 0:
                entries.append((f"r{i}", _mps_number(row[j])))
        for pos in range(0, len(entries), 2):
            chunk = entries[pos : pos + 2]
            parts = "  ".join(f"{rname}  {val}" for rname, val in chunk)
            lines.append(f"    x{j}  {parts}")
    if in_block:
        lines.append("    m2  'MARKER'  'INTEND'")
    lines.append("RHS")
    for i, b in enumerate(inst.rhs):
        if b != 0:
            lines.append(f"    rhs  r{i}  {_mps_number(b)}")
    lines.append("BOUNDS")
    for j in range(inst.num_vars):
        lo, hi = inst.lower_bounds[j], inst.upper_bounds[j]
        if lo is None:
            lines.append(f" MI bnd  x{j}")
        else:
            lines.append(f" LO bnd  x{j}  {_mps_number(lo)}")
        if hi is None:
            lines.append(f" PL bnd  x{j}")
        else:
            lines.append(f" UP bnd  x{j}  {_mps_number(hi)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
