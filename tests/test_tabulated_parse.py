"""load_tabulated_csv against the per-field float() loader it replaced.

The bulk parse must accept the same files with bitwise-equal values, and
refuse the same files with the same error type and text.
"""

import random
import warnings

import numpy as np
import pytest

from thouless_lab.errors import ConfigError, DomainError
from thouless_lab.leads import TabulatedLead, load_tabulated_csv


def per_field_load(path) -> TabulatedLead:
    """The former loader: one float() per field, line by line."""
    energies, re_f, im_f, row_lines = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "E,ReF,ImF":
            raise ConfigError(f"{path}:1: expected header 'E,ReF,ImF', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 comma-separated fields")
            try:
                e, re_v, im_v = (float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            energies.append(e)
            row_lines.append(lineno)
            re_f.append(re_v)
            im_f.append(im_v)
    if len(energies) < 2:
        raise ConfigError(f"{path}: need at least 2 data rows")
    E = np.asarray(energies)
    if not np.all(np.diff(E) > 0):
        bad = row_lines[int(np.argmin(np.diff(E))) + 1]
        raise ConfigError(f"{path}:{bad}: energies must be strictly increasing")
    try:
        return TabulatedLead(E, np.asarray(re_f) + 1j * np.asarray(im_f))
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def outcome(load, path):
    """Values as bytes, or the error type and text; with the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lead = load(path)
            result = ("ok", lead.energies.tobytes(), lead.values.tobytes())
        except Exception as exc:  # compared, not swallowed
            result = ("error", type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def assert_same(tmp_path, text: str):
    path = tmp_path / "lead.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_tabulated_csv, path) == outcome(per_field_load, path)


ROWS = "-2.0,0.1,0.0\n-1.0,0.2,0.5\n0.0,-0.1,0.7\n1.0,0.3,0.5\n2.0,0.0,0.0\n"
CASES = {
    "plain": "E,ReF,ImF\n" + ROWS,
    "no_final_newline": "E,ReF,ImF\n" + ROWS.rstrip("\n"),
    "crlf": ("E,ReF,ImF\n" + ROWS).replace("\n", "\r\n"),
    "spaced_header": "E, ReF, ImF\n" + ROWS,
    "whitespace_around_fields": "E,ReF,ImF\n -2.0 ,\t0.1, 0.0\n-1.0 , 0.2 ,0.5\t\n 0.0,-0.1,0.7\n",
    "underscore": "E,ReF,ImF\n-1_0,0.1,0.0\n0.0,1_0.5,0.5\n1.0,0.3,0.5\n",
    "blank_line": "E,ReF,ImF\n-1.0,0.1,0.0\n\n0.0,0.2,0.5\n1.0,0.3,0.5\n",
    "whitespace_line": "E,ReF,ImF\n-1.0,0.1,0.0\n  \t \n0.0,0.2,0.5\n",
    "form_feed_line": "E,ReF,ImF\n-1.0,0.1,0.0\n\x0c\n0.0,0.2,0.5\n",
    "short_row": "E,ReF,ImF\n-1.0,0.1,0.0\n0.0,0.2\n1.0,0.3,0.5\n",
    "long_row": "E,ReF,ImF\n-1.0,0.1,0.0\n0.0,0.2,0.5,9\n",
    "trailing_comma": "E,ReF,ImF\n-1.0,0.1,0.0,\n0.0,0.2,0.5,\n",
    "empty_field": "E,ReF,ImF\n-1.0,,0.0\n0.0,0.2,0.5\n",
    "bad_number": "E,ReF,ImF\n-1.0,0.1,0.0\n0.0,abc,0.5\n",
    "two_numbers_in_a_field": "E,ReF,ImF\n-1.0,0.1,0.0\n0.0,1 2,0.5\n",
    "quoted": 'E,ReF,ImF\n-1.0,0.1,0.0\n0.0,"0.2",0.5\n',
    "comment_mark": "E,ReF,ImF\n-1.0,0.1,0.0\n0.0,0.2,0.5 # note\n",
    "bad_header": "E,Re,Im\n" + ROWS,
    "missing_header": ROWS,
    "empty_file": "",
    "header_only": "E,ReF,ImF\n",
    "one_row": "E,ReF,ImF\n-1.0,0.1,0.5\n",
    "repeated_energy": "E,ReF,ImF\n-1.0,0.1,0.0\n0.0,0.2,0.5\n0.0,0.3,0.5\n1.0,0.3,0.5\n",
    "decreasing_after_blank": "E,ReF,ImF\n-1.0,0.1,0.0\n\n0.5,0.2,0.5\n0.0,0.3,0.5\n",
    "special_tokens": "E,ReF,ImF\n-1.0,nan,0.0\n0.0,Infinity,0.5\n1.0,-inf,0.5\n",
    "overflow_underflow": "E,ReF,ImF\n-1.0,1e400,0.0\n0.0,1e-400,0.5\n",
    "negative_im": "E,ReF,ImF\n-1.0,0.1,-0.5\n0.0,0.2,0.5\n",
    "arabic_indic_digit": "E,ReF,ImF\n-1.0,١,0.0\n0.0,0.2,0.5\n",
    "hex": "E,ReF,ImF\n-1.0,0x10,0.0\n0.0,0.2,0.5\n",
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_matches_per_field_loader(tmp_path, text):
    assert_same(tmp_path, text)


def test_non_increasing_energy_names_its_file_line(tmp_path):
    # blank lines count: the pair 0.5, 0.0 sits on lines 4 and 5 of the file
    path = tmp_path / "lead.csv"
    path.write_text(CASES["decreasing_after_blank"])
    with pytest.raises(ConfigError, match=":5: energies must be strictly increasing"):
        load_tabulated_csv(path)


def test_matches_per_field_loader_on_many_digits(tmp_path):
    # 17-significant-digit, repr and %.6e forms of doubles of every magnitude
    rng = np.random.default_rng(7)
    E = np.sort(rng.uniform(-3.0, 3.0, 500))
    values = rng.integers(0, 2**64, size=(500, 2), dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = 0.5
    values[:, 1] = np.abs(values[:, 1])
    for form in ("{!r}", "{:.17g}", "{:.6e}"):
        rows = "".join(
            ",".join(form.format(x) for x in (e, re_v, im_v)) + "\n"
            for e, (re_v, im_v) in zip(E.tolist(), values.tolist())
        )
        assert_same(tmp_path, "E,ReF,ImF\n" + rows)


TOKENS = ["1", "-2.5", " 3", "4 ", "\t5", "1_0", "", " ", "nan", "-inf", "Infinity", "1e3",
          ".5", "5.", "_1", "abc", "1 2", "\x0c1", "1\x0b", "+1", "1e400", '"1"']


def test_matches_per_field_loader_on_random_files(tmp_path):
    rng = random.Random(20141408)
    for _ in range(300):
        rows, energy = [], -1.0
        for _ in range(rng.choice([0, 1, 2, 3, 5])):
            if rng.random() < 0.1:
                rows.append(rng.choice(["", " ", "\t"]))
                continue
            energy += rng.choice([0.5, 0.0, -0.25])
            fields = [repr(energy), repr(rng.uniform(-1, 1)), repr(rng.uniform(0, 1))]
            if rng.random() < 0.5:
                fields[rng.randrange(3)] = rng.choice(TOKENS)
            if rng.random() < 0.05:
                fields = fields[:2] if rng.random() < 0.5 else fields + ["1"]
            rows.append(rng.choice([",", ", "]).join(fields))
        end = rng.choice(["\n", "", "\n\n"])
        assert_same(tmp_path, "E,ReF,ImF\n" + "\n".join(rows) + end)
