"""The one layout of every CSV file repelflow writes or reads:

    # key = value    parameters sorted by key, values as Python literals
    # c1,c2,...      column names
    rows of "%.17g" values, comma separated
"""

import ast

import numpy as np

from .errors import ConfigError

# rows formatted per write: one '%' per block keeps the text of a whole
# file out of memory
_CSV_BLOCK_ROWS = 4096


def _csv_block(cols):
    """Rows of one block, each value as "%.17g" gives it.

    A column with fewer than a quarter as many distinct values as rows
    (snapshot times, quantile indices, cell masses) formats each distinct
    value once and enters the rows as text.
    """
    n = len(cols[0])
    cells = np.empty((n, len(cols)), dtype=object)
    formats = []
    for j, col in enumerate(cols):
        # key on the bits: 0.0 and -0.0 are equal but print differently
        keys, inverse = np.unique(col.view(np.uint64), return_inverse=True)
        if 4 * len(keys) < n:
            text = np.array(["%.17g" % v for v in keys.view(float).tolist()],
                            dtype=object)
            cells[:, j] = text[inverse]
            formats.append("%s")
        else:
            cells[:, j] = col
            formats.append("%.17g")
    return ((",".join(formats) + "\n") * n) % tuple(cells.ravel().tolist())


def write_table(path, header, columns, params=None):
    """Write params, the column names in header, then the rows of columns."""
    columns = [np.ascontiguousarray(c, dtype=float) for c in columns]
    with open(path, "w") as fh:
        for key, value in sorted((params or {}).items()):
            value = value.item() if isinstance(value, np.generic) else value
            fh.write(f"# {key} = {value!r}\n")
        fh.write("# " + ",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            fh.write(_csv_block([c[lo:lo + _CSV_BLOCK_ROWS] for c in columns]))


def _literal(text):
    """A parameter value: the Python literal it spells, else the text itself."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError):
        return text


def read_table(path, what, reason, columns=None):
    """(params, rows >= 1 row of floats); a bad body is a ConfigError.

    A first row spelling columns(n), the names of n columns, is skipped:
    files written before the column line was a comment have one.
    """
    params, body = {}, []
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("#"):
                    key, eq, raw = line[1:].partition("=")
                    if eq:
                        params[key.strip()] = _literal(raw.strip())
                elif line.partition("#")[0].strip():
                    body.append(line)
        first = body[0].strip() if body else ""
        if first and columns and first == ",".join(columns(first.count(",") + 1)):
            del body[0]
        if not body:
            raise ValueError("no rows")
        rows = np.loadtxt(body, delimiter=",", comments="#", ndmin=2)
    except ValueError as err:
        raise ConfigError(f"{what} {str(path)!r} is not numeric CSV: {err}",
                          reason=reason) from None
    return params, rows
