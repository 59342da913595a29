"""Per-row reference implementations of the text parsers, writers, the HMD
clip, smoothing, SVG panels and heatmap, kept as the oracles that the array
versions in the package must match byte for byte (writers, SVG), bit for bit
(clip, smoothing), or result for result and error text for error text
(parsers).

Each reads or formats one row, cell or point at a time, as the package did
before it worked on whole arrays.
"""

import csv
import io
import math
from xml.sax.saxutils import escape

import numpy as np

from mortboost.grids import GENDERS, FeatureSpace, MortalityTable, ParseError, RateSurface, gender_index
from mortboost.hmd import DEFAULT_CAUSES, CauseDeathTable, GridError, HmdGrid
from mortboost.svgplot import _PALETTE, _diverging_color

# the layout and rate floor the oracles expect, stated here rather than read
# from the modules under test so that a change to either one shows
_NCOL, _PANEL_W, _PANEL_H = 3, 260, 170
_CELL = 5
_RATE_FLOOR = 1e-12

# --- HMD 1x1 ---------------------------------------------------------------


def _parse_hmd_row(tokens, ln_no):
    if len(tokens) != 5:
        raise ParseError(f"expected 5 fields, got {len(tokens)}", ln_no)
    try:
        year = int(tokens[0])
        age_tok = tokens[1]
        open_age = age_tok.endswith("+")
        age = int(age_tok[:-1]) if open_age else int(age_tok)
        values = tuple(float("nan") if v == "." else float(v) for v in tokens[2:5])
    except ValueError as exc:
        raise ParseError(str(exc), ln_no) from None
    for v in values:
        if not np.isnan(v) and v < 0:
            raise ParseError(f"negative value {v}", ln_no)
    return year, age, open_age, values


def parse_hmd_1x1(text, kind):
    records = {}
    open_age = None
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        if ln_no <= 2:
            continue
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].lower() == "year":
            continue
        year, age, is_open, values = _parse_hmd_row(tokens, ln_no)
        if is_open:
            open_age = age if open_age is None else max(open_age, age)
        if (age, year) in records:
            raise ParseError(f"duplicate entry for age {tokens[1]}, year {year}", ln_no)
        records[(age, year)] = values
    if not records:
        raise ParseError("no data rows found")
    ages = np.array(sorted({a for a, _ in records}))
    years = np.array(sorted({t for _, t in records}))
    grids = np.full((3, ages.size, years.size), np.nan)
    a_pos = {int(a): i for i, a in enumerate(ages)}
    t_pos = {int(t): i for i, t in enumerate(years)}
    for (a, t), values in records.items():
        grids[:, a_pos[a], t_pos[t]] = values
    return HmdGrid(kind, ages, years, *grids, open_age)


def write_hmd_1x1(grid):
    buf = io.StringIO()
    buf.write(f"Synthetic, {grid.kind.capitalize()} (period 1x1)\n")
    buf.write("\n")
    buf.write("  Year          Age             Female            Male           Total\n")

    def fmt(v):
        return "." if np.isnan(v) else repr(float(v))

    for ti, t in enumerate(grid.years):
        for ai, a in enumerate(grid.ages):
            age_tok = f"{a}+" if grid.open_age is not None and a == grid.open_age else str(a)
            buf.write(
                f"  {t}  {age_tok}  {fmt(grid.female[ai, ti])}  {fmt(grid.male[ai, ti])}  "
                f"{fmt(grid.total[ai, ti])}\n"
            )
    return buf.getvalue()


def clip_to_space(deaths, exposures, space, pool_top_age):
    """Each age found by its own lookup, the pooled top row as a running sum
    from 0.0; deaths=None gives all-zero counts. Returns the table and the
    warnings, the last for the rounded death counts."""
    if (deaths is not None and deaths.kind != "deaths") or exposures.kind != "exposures":
        raise ValueError("pass the deaths grid first and the exposures grid second")
    warnings = []
    requested_years = set(range(space.year_min, space.year_max + 1))
    for grid in (exposures,) if deaths is None else (deaths, exposures):
        missing_years = sorted(requested_years - {int(t) for t in grid.years})
        if missing_years:
            raise GridError(grid, f"{grid.kind} file lacks requested years: {missing_years}")
        missing_ages = sorted(set(range(space.age_min, space.age_max + 1)) - {int(a) for a in grid.ages})
        if missing_ages:
            raise GridError(grid, f"{grid.kind} file lacks requested ages: {missing_ages}")

    def cut(grid, gender):
        src = grid.gender_grid(gender)
        t_sel = np.isin(grid.years, np.arange(space.year_min, space.year_max + 1))
        out = np.zeros((space.n_ages, space.n_years))
        for ai, a in enumerate(range(space.age_min, space.age_max + 1)):
            out[ai] = src[np.nonzero(grid.ages == a)[0][0], t_sel]
        if pool_top_age:
            top = np.zeros(space.n_years)
            for a in grid.ages[grid.ages >= space.age_max]:
                top = top + np.nan_to_num(src[np.nonzero(grid.ages == a)[0][0], t_sel], nan=0.0)
            out[-1] = top
        nan_cells = np.nonzero(np.isnan(out))
        if nan_cells[0].size:
            warnings.append(f"{grid.kind}/{gender}: {nan_cells[0].size} missing cells treated as zero")
            out = np.nan_to_num(out, nan=0.0)
        return out

    E = np.stack([cut(exposures, g) for g in GENDERS])
    D_raw = np.zeros_like(E) if deaths is None else np.stack([cut(deaths, g) for g in GENDERS])
    orphan = (E == 0) & (D_raw > 0)
    if np.any(orphan):
        warnings.append(f"{int(orphan.sum())} cells had deaths with zero exposure; deaths zeroed")
        D_raw = np.where(orphan, 0.0, D_raw)
    D = np.rint(D_raw)
    delta = np.abs(D - D_raw)
    n_rounded = int((delta > 0).sum())
    if n_rounded:
        cells = "1 cell" if n_rounded == 1 else f"{n_rounded} cells"
        warnings.append(f"deaths: {cells} rounded to a whole count, largest change {float(delta.max()):.3g}")
    return MortalityTable(space, E, D.astype(np.int64)), warnings


# --- cause-of-death CSV ----------------------------------------------------


def _csv_rows(text):
    """(the line it starts on, row) for each row of csv.reader; a row it
    cannot split raises ParseError."""
    reader = csv.reader(io.StringIO(text))
    ln_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), ln_no) from None
        yield ln_no, row
        ln_no = reader.line_num + 1


def parse_cod_csv(text, n_buckets, causes=DEFAULT_CAUSES):
    reader = _csv_rows(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise ParseError("empty file") from None
    if [h.strip() for h in header] != ["gender", "age_group", "year", "cause", "deaths"]:
        raise ParseError("header must be exactly gender,age_group,year,cause,deaths", 1)
    label_of = {}
    for k, c in enumerate(causes):
        if c.lower() in label_of:
            first = causes[label_of[c.lower()]]
            raise ValueError(f"cause labels {first!r} and {c!r} are equal without regard to case")
        label_of[c.lower()] = k
    rows = {}
    for ln_no, row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", ln_no)
        g_tok, bucket_tok, year_tok, cause_tok, deaths_tok = (f.strip() for f in row)
        if g_tok.lower() not in GENDERS:
            raise ParseError(f"unknown gender {g_tok!r}", ln_no)
        gi = GENDERS.index(g_tok.lower())
        try:
            bucket = int(bucket_tok)
            year = int(year_tok)
        except ValueError as exc:
            raise ParseError(str(exc), ln_no) from None
        if not 1 <= bucket <= n_buckets:
            raise ParseError(f"age_group must be an index in 1..{n_buckets}, got {bucket}", ln_no)
        if cause_tok.lower() in label_of:
            k = label_of[cause_tok.lower()]
        else:
            try:
                k = int(cause_tok) - 1
            except ValueError:
                raise ParseError(f"unknown cause {cause_tok!r}", ln_no) from None
            if not 0 <= k < len(causes):
                raise ParseError(f"cause index {cause_tok} outside registry 1..{len(causes)}", ln_no)
        if deaths_tok == "":
            count = None
        else:
            try:
                count = int(deaths_tok)
            except ValueError:
                raise ParseError(f"deaths must be an integer or empty, got {deaths_tok!r}", ln_no) from None
            if count < 0:
                raise ParseError(f"negative death count {count}", ln_no)
            if count >= 2**63:
                raise ParseError(f"death count {count} does not fit a 64-bit count", ln_no)
        key = (gi, bucket, year, k)
        if key in rows:
            raise ParseError(f"duplicate entry for ({g_tok},{bucket},{year},{causes[k]})", ln_no)
        rows[key] = count
    if not rows:
        raise ParseError("no data rows found")
    year_min = min(t for _, _, t, _ in rows)
    year_max = max(t for _, _, t, _ in rows)
    shape = (len(GENDERS), n_buckets, year_max - year_min + 1, len(causes))
    counts = np.zeros(shape, dtype=np.int64)
    missing = np.ones(shape, dtype=bool)
    for (gi, bucket, year, k), count in rows.items():
        if count is not None:
            counts[gi, bucket - 1, year - year_min, k] = count
            missing[gi, bucket - 1, year - year_min, k] = False
    return CauseDeathTable(tuple(causes), n_buckets, year_min, year_max, counts, missing)


def write_cod_csv(table):
    buf = io.StringIO()
    buf.write("gender,age_group,year,cause,deaths\n")
    for gi, g in enumerate(GENDERS):
        for b in range(table.n_buckets):
            for ti in range(table.n_years):
                for k in range(table.n_causes):
                    val = "" if table.missing[gi, b, ti, k] else str(int(table.counts[gi, b, ti, k]))
                    buf.write(f"{g},{b + 1},{table.year_min + ti},{k + 1},{val}\n")
    return buf.getvalue()


# --- codboost exports ------------------------------------------------------


def smooth_series(values, window):
    y = np.asarray(values, dtype=np.float64)
    if window == 1:
        return y.copy()
    half = window // 2
    out = np.empty_like(y)
    for i in range(y.size):
        lo = max(0, i - half)
        hi = min(y.size, i + half + 1)
        out[i] = y[lo:hi].mean()
    return out


def theta_to_csv(cod, raw, norm, smooth_window=None):
    header = "gender,age_group,year,cause,theta_raw,theta_norm"
    if smooth_window:
        header += ",theta_raw_smooth"
    buf = io.StringIO()
    buf.write(header + "\n")
    smoothed = None
    if smooth_window:
        smoothed = np.empty_like(raw.values)
        for gi in range(len(GENDERS)):
            for b in range(cod.n_buckets):
                for k in range(cod.n_causes):
                    smoothed[gi, b, :, k] = smooth_series(raw.values[gi, b, :, k], smooth_window)
    for gi, g in enumerate(GENDERS):
        for b in range(cod.n_buckets):
            for ti in range(cod.n_years):
                for k in range(cod.n_causes):
                    row = (
                        f"{g},{b + 1},{cod.year_min + ti},{k + 1},"
                        f"{float(raw.values[gi, b, ti, k])!r},{float(norm.values[gi, b, ti, k])!r}"
                    )
                    if smooth_window:
                        row += f",{float(smoothed[gi, b, ti, k])!r}"
                    buf.write(row + "\n")
    return buf.getvalue()


def residuals_to_csv(cod, residuals):
    buf = io.StringIO()
    buf.write("gender,age_group,year,cause,delta\n")
    for gi, g in enumerate(GENDERS):
        for b in range(cod.n_buckets):
            for ti in range(cod.n_years):
                for k in range(cod.n_causes):
                    buf.write(
                        f"{g},{b + 1},{cod.year_min + ti},{k + 1},"
                        f"{float(residuals.values[gi, b, ti, k])!r}\n"
                    )
    return buf.getvalue()


# --- rate and delta grids -------------------------------------------------


def rate_surface_to_csv(surface):
    space = surface.space
    lines = ["gender,age,year,rate"]
    for gi, g in enumerate(GENDERS):
        for ai, a in enumerate(space.ages()):
            for ti, t in enumerate(space.years()):
                lines.append(f"{g},{a},{t},{float(surface.rate[gi, ai, ti])!r}")
    return "\n".join(lines) + "\n"


def rate_surface_from_csv(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "gender,age,year,rate":
        raise ParseError("header must be exactly gender,age,year,rate", 1)
    rows = {}
    for ln_no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        fields = ln.split(",")
        try:
            if len(fields) != 4:
                raise ValueError(f"expected 4 fields, got {len(fields)}")
            g, a, t, r = fields
            key = (gender_index(g), int(a), int(t))
            value = float(r)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"rate {value!r} does not lie in [0, 1]")
            if 0.0 < value < 2.2250738585072014e-308:
                raise ValueError(f"rate {value!r} is below the smallest normal float 2.2250738585072014e-308")
        except ValueError as exc:
            raise ParseError(str(exc), ln_no) from None
        if key in rows:
            raise ParseError(f"duplicate rate row for {g}, age {key[1]}, year {key[2]}", ln_no)
        rows[key] = value
    if not rows:
        raise ParseError("no rate rows after the header")
    ages = sorted({a for _, a, _ in rows})
    years = sorted({t for _, _, t in rows})
    space = FeatureSpace(ages[0], ages[-1], years[0], years[-1])
    if len(rows) != space.size:
        raise ValueError(
            f"rate grid is not dense: {len(rows)} rows for a {space.size}-cell space"
        )
    rate = np.empty(space.shape)
    for (gi, a, t), r in rows.items():
        rate[gi, a - space.age_min, t - space.year_min] = r
    return RateSurface(space, rate)


def delta_to_csv(result):
    space = result.space
    buf = io.StringIO()
    buf.write("gender,age,year,cohort,delta\n")
    for gi, g in enumerate(GENDERS):
        for ai, a in enumerate(space.ages()):
            for ti, t in enumerate(space.years()):
                buf.write(f"{g},{a},{t},{t - a},{float(result.delta[gi, ai, ti])!r}\n")
    return buf.getvalue()


# --- LC/RH parameter CSV --------------------------------------------------


_PARAM_AXIS = {"beta0": "age", "beta1": "age", "beta2": "age", "kappa": "year", "gamma": "cohort"}


def read_params_csv(text, kinds, make):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "gender,kind,index,value":
        raise ParseError("header must be exactly gender,kind,index,value", 1)
    rows = {}
    for ln_no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        fields = ln.split(",")
        try:
            if len(fields) != 4:
                raise ValueError(f"expected 4 fields, got {len(fields)}")
            g, kind, idx, val = fields
            value = float(val)
            if not math.isfinite(value):
                raise ValueError(f"value {val!r} is not finite")
            i = int(idx)
            gender_index(g)
        except ValueError as exc:
            raise ParseError(str(exc), ln_no) from None
        by_index = rows.setdefault(g, {}).setdefault(kind, {})
        if i in by_index:
            raise ParseError(f"duplicate {g} {kind} row for index {i}", ln_no)
        by_index[i] = value
    if not rows:
        raise ParseError("no parameter rows after the header")
    out = {}
    for g, by_kind in rows.items():
        if set(by_kind) != set(kinds):
            raise ValueError(f"gender {g}: expected kinds {'/'.join(kinds)}, got {sorted(by_kind)}")
        starts, vecs = {}, {}
        for kind in kinds:
            idx = sorted(by_kind[kind])
            if idx != list(range(idx[0], idx[0] + len(idx))):
                raise ValueError(f"gender {g}: {kind} indices are not contiguous")
            starts[kind], vecs[kind] = idx[0], np.array([by_kind[kind][i] for i in idx])
        age_min, n_ages = starts["beta0"], vecs["beta0"].size
        year_min, n_years = starts["kappa"], vecs["kappa"].size
        span = {
            "age": (age_min, n_ages),
            "year": (year_min, n_years),
            "cohort": (year_min - (age_min + n_ages - 1), n_ages + n_years - 1),
        }
        for kind in kinds:
            if (starts[kind], vecs[kind].size) != span[_PARAM_AXIS[kind]]:
                raise ValueError(f"gender {g}: {kind} index range does not match the age/year ranges")
        out[g] = make(
            gender=g,
            age_min=age_min,
            year_min=year_min,
            **vecs,
            rate_floor=_RATE_FLOOR,
            converged=True,
            n_iterations=0,
            deviance_trace=np.array([np.nan]),
            flags=["loaded from CSV"],
        )
    return out


# --- SVG panels ------------------------------------------------------------


def _panel(x, series, dots, title, x0, y0, w, h, y_log):
    ml, mr, mt, mb = 34, 6, 16, 18
    pw, ph = w - ml - mr, h - mt - mb
    all_y = [v for _, ys in series for v in ys if np.isfinite(v)]
    if dots:
        all_y += [v for _, v in dots if np.isfinite(v)]
    if y_log:
        all_y = [v for v in all_y if v > 0]
        all_y = [np.log10(v) for v in all_y] or [0.0]
    if not all_y:
        all_y = [0.0]
    y_min, y_max = min(all_y), max(all_y)
    if y_max <= y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(min(x)), float(max(x))
    if x_max <= x_min:
        x_max = x_min + 1.0

    def sx(v):
        return x0 + ml + (float(v) - x_min) / (x_max - x_min) * pw

    def sy(v):
        if y_log:
            v = np.log10(v) if v > 0 else y_min
        return y0 + mt + (y_max - float(v)) / (y_max - y_min) * ph

    parts = [
        f'<rect x="{x0 + ml}" y="{y0 + mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#cccccc"/>',
        f'<text x="{x0 + ml}" y="{y0 + 12}" font-family="sans-serif" font-size="10">'
        f"{escape(title)}</text>",
        f'<text x="{x0 + 2}" y="{y0 + mt + 8}" font-family="sans-serif" font-size="8">'
        f"{y_max:.3g}</text>",
        f'<text x="{x0 + 2}" y="{y0 + mt + ph}" font-family="sans-serif" font-size="8">'
        f"{y_min:.3g}</text>",
    ]
    for idx, (label, ys) in enumerate(series):
        pts = " ".join(
            f"{sx(xv):.2f},{sy(yv):.2f}"
            for xv, yv in zip(x, ys)
            if np.isfinite(yv) and (not y_log or yv > 0)
        )
        if pts:
            # the 12 colours in turn, then again with dashes 3, 6, ... long
            dash = f' stroke-dasharray="{3 * (idx // 12)},2"' if idx >= 12 else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{_PALETTE[idx % 12]}" stroke-width="1"{dash}/>'
            )
    if dots:
        for xv, yv in dots:
            if np.isfinite(yv) and (not y_log or yv > 0):
                parts.append(f'<circle cx="{sx(xv):.2f}" cy="{sy(yv):.2f}" r="1.4" fill="#333333"/>')
    return parts


def panels_svg(panels):
    n = len(panels)
    nrow = (n + _NCOL - 1) // _NCOL
    width, height = _NCOL * _PANEL_W, nrow * _PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, p in enumerate(panels):
        x0 = (i % _NCOL) * _PANEL_W
        y0 = (i // _NCOL) * _PANEL_H
        parts.extend(
            _panel(p["x"], p.get("series", []), p.get("dots"), p["title"], x0, y0,
                   _PANEL_W, _PANEL_H, p.get("y_log", False))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- SVG heatmap -----------------------------------------------------------


def heatmap_svg(values, row_values, col_values, white_band, title):
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    left, top, bottom = 50, 28, 30
    width = left + n_cols * _CELL + 10
    height = top + n_rows * _CELL + bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="16" font-family="sans-serif" font-size="12">{escape(title)}</text>',
    ]
    for r in range(n_rows):
        y = top + (n_rows - 1 - r) * _CELL
        for c in range(n_cols):
            color = _diverging_color(values[r, c], white_band)
            parts.append(
                f'<rect x="{left + c * _CELL}" y="{y}" width="{_CELL}" height="{_CELL}" fill="{color}"/>'
            )
    row_step = max(1, n_rows // 8)
    for r in range(0, n_rows, row_step):
        y = top + (n_rows - 1 - r) * _CELL + _CELL
        parts.append(
            f'<text x="4" y="{y}" font-family="sans-serif" font-size="9">{row_values[r]}</text>'
        )
    col_step = max(1, n_cols // 8)
    for c in range(0, n_cols, col_step):
        parts.append(
            f'<text x="{left + c * _CELL}" y="{height - 10}" font-family="sans-serif" '
            f'font-size="9">{col_values[c]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
