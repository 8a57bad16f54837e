"""Rating ingestion, per-user train/test splitting, and popularity statistics.

Supported input layouts: MovieLens-100K style tab-separated files, the
``user::item::rating::timestamp`` layout, and generic CSV with a
``user,item,rating[,timestamp]`` header. Splits persist as two generic CSV
files plus a JSON manifest, with a binary sidecar that caches the parsed
split (see :func:`load_split`).

A rating file is parsed in blocks of ``CHUNK_ROWS`` lines. A block is one
text split into its fields: a line has one field more than delimiters, and
a line of whitespace only is blank. In CSV this holds until a block has a
``"`` or a line longer than ``csv.field_size_limit()``; from that block on
``csv.reader`` reads the rest of the file, as a quoted field may span
lines. The split CSVs are written by joining one string per distinct id
and per distinct value, an id quoted as ``csv.writer`` quotes it.

Ratings are held as columns (:class:`RatingColumns`): id tables plus int64
user and item codes, float64 values, int64 timestamps and a mask of the
missing ones, one entry per rating. A timestamp field reads as ``int(s)``
when it is an integer literal, as ``int(float(s))`` otherwise, and must fit
int64, so every stored timestamp reads back exactly as written.
A :class:`SplitDataset` keeps its train and test ratings that way and
indexes them by user in compressed sparse row (CSR) form; ``Rating``
objects and id-keyed set indices are built only when something asks for
them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ParseError
from .io_utils import (
    NPZ_ERRORS,
    canonical_ids,
    csv_parse_error,
    id_int,
    read_json,
    sha256_file,
    split_digest,
    write_json,
)

FORMATS = ("tab_separated", "double_colon", "csv")
_DELIMITERS = {"tab_separated": "\t", "double_colon": "::", "csv": ","}

# Lines per block of a rating file parse, rows per block of a split CSV
# write. A block's strings (its lines, their text and its fields) stay a few
# MB, and each block is dropped before the next one is made.
CHUNK_ROWS = 1 << 13


@dataclass(frozen=True)
class Rating:
    user_id: object
    item_id: object
    value: float
    timestamp: int | None = None


def _codes(column, index: dict) -> np.ndarray:
    """Codes of ``column``'s values in ``index`` (value -> code); values not
    yet in ``index`` are added in order of first appearance."""
    for v in dict.fromkeys(column):
        index.setdefault(v, len(index))
    return np.fromiter(map(index.__getitem__, column), dtype=np.int64, count=len(column))


@dataclass(frozen=True, eq=False)
class RatingColumns:
    """Ratings as parallel arrays: row k is ``users[user_codes[k]]`` rating
    ``items[item_codes[k]]`` with ``values[k]`` at ``timestamps[k]``, unless
    ``missing[k]`` says the source had no timestamp (``timestamps[k]`` is 0
    then)."""

    users: tuple
    items: tuple
    user_codes: np.ndarray  # int64
    item_codes: np.ndarray  # int64
    values: np.ndarray  # float64
    timestamps: np.ndarray  # int64
    missing: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def from_ratings(ratings) -> "RatingColumns":
        """Columns of a :class:`Rating` sequence, rows in the same order; the
        id tables list ids in order of first appearance. ValueError when a
        timestamp is neither None nor an int within int64."""
        ratings = list(ratings)
        users: dict = {}
        items: dict = {}
        user_codes = _codes([r.user_id for r in ratings], users)
        item_codes = _codes([r.item_id for r in ratings], items)
        stamps = [r.timestamp for r in ratings]
        return RatingColumns(
            tuple(users), tuple(items), user_codes, item_codes,
            np.fromiter((r.value for r in ratings), dtype=float, count=len(ratings)),
            np.fromiter(map(_stored_stamp, stamps), dtype=np.int64, count=len(stamps)),
            np.fromiter((t is None for t in stamps), dtype=bool, count=len(stamps)))

    def _with_ids(self, users, items) -> "RatingColumns":
        return replace(self, users=tuple(users), items=tuple(items))

    def take(self, rows) -> "RatingColumns":
        """The given rows, in the given order, over the same id tables."""
        return RatingColumns(self.users, self.items, self.user_codes[rows], self.item_codes[rows],
                             self.values[rows], self.timestamps[rows], self.missing[rows])

    def deduplicated(self) -> "RatingColumns":
        """One row per (user, item) pair: the last occurrence's value and
        timestamp, at the position of the first occurrence."""
        key = self.user_codes * len(self.items) + self.item_codes
        ordered = np.sort(key)  # several times faster than np.unique's stable argsort
        if not (ordered[1:] == ordered[:-1]).any():
            return self
        _, first = np.unique(key, return_index=True)
        _, last = np.unique(key[::-1], return_index=True)
        return self.take((len(key) - 1 - last)[np.argsort(first)])

    def recode(self, user_index: dict, item_index: dict) -> tuple:
        """(user positions, item positions): per row, where its user sits in
        ``user_index`` and its item in ``item_index`` (id -> position); -1
        where absent."""
        def positions(index, table, codes):
            return np.fromiter((index.get(x, -1) for x in table), dtype=np.int64,
                               count=len(table))[codes]
        return (positions(user_index, self.users, self.user_codes),
                positions(item_index, self.items, self.item_codes))

    def ratings(self) -> list:
        """The rows as :class:`Rating` objects."""
        stamps = _object_array(self.timestamps.tolist())
        stamps[self.missing] = None
        return list(map(Rating, _object_array(self.users)[self.user_codes].tolist(),
                        _object_array(self.items)[self.item_codes].tolist(),
                        self.values.tolist(), stamps.tolist()))


def _stored_stamp(t) -> int:
    if t is not None and (type(t) is not int or not -2**63 <= t < 2**63):
        raise ValueError(f"timestamp {t!r} is neither None nor an int within int64")
    return t or 0


def _object_array(values) -> np.ndarray:
    """A 1-D object array of ``values`` (ints stay Python ints, None stays None)."""
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _csr(keys: np.ndarray, values: np.ndarray, n_keys: int) -> tuple:
    """(indptr, grouped): ``grouped[indptr[k]:indptr[k + 1]]`` are the
    ``values`` whose key is k, in their original order."""
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=indptr[1:])
    return indptr, values[np.argsort(keys, kind="stable")]


def csr_positions(indptr: np.ndarray, codes: np.ndarray) -> tuple:
    """(row, position) of every CSR entry of the keys ``codes``: row r holds
    key ``codes[r]``'s entries, positions into the arrays ``indptr`` indexes,
    for fancy indexing a block of rows."""
    starts, lengths = indptr[codes], indptr[codes + 1] - indptr[codes]
    rows = np.repeat(np.arange(len(codes)), lengths)
    shift = np.cumsum(lengths) - lengths - starts  # a row's first output slot minus its start
    return rows, np.arange(len(rows)) - shift[rows]


def _sets(keys: tuple, indptr: np.ndarray, codes: np.ndarray, values: tuple) -> dict:
    """key -> frozenset of the ``values`` its CSR row lists."""
    bounds, flat = indptr.tolist(), _object_array(values)[codes].tolist()
    return {key: frozenset(flat[bounds[k]:bounds[k + 1]]) for k, key in enumerate(keys)}


def _sorted_table(table: tuple, codes: np.ndarray) -> tuple:
    """(sorted ids that ``codes`` use, map from old code to new code)."""
    present = np.flatnonzero(np.bincount(codes, minlength=len(table)))
    ids = [table[c] for c in present.tolist()]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    new_code = np.full(len(table), -1, dtype=np.int64)
    new_code[present[order]] = np.arange(len(order))
    return tuple(ids[k] for k in order), new_code


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Immutable train/test partition over sorted user and item tables.

    ``train_columns`` and ``test_columns`` code their ratings against
    ``users`` and ``items``, the train universe. Per-user item sets have one
    form, a CSR over user codes (``train_csr``, ``test_csr``,
    ``relevant_csr``), which the algorithms read: a user's candidates are the
    items outside its ``train_csr`` row under all_unrated and its
    ``test_csr`` row under rated_test_items. ``train``/``test`` (tuples of
    :class:`Rating`) and the ``per_*_index`` frozenset views are built on
    first use, for callers that hold ids.
    """

    users: tuple
    items: tuple
    train_columns: RatingColumns
    test_columns: RatingColumns
    # results of the methods below that take arguments, per (method, arguments)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def from_ratings(train, test) -> "SplitDataset":
        """Build a split from explicit train/test rating lists.

        Duplicate (user, item) pairs keep the last occurrence, as in the
        loaders. Test ratings whose user or item never occurs in train are
        dropped; the recommendable universe is the train item set.
        """
        return SplitDataset.from_columns(RatingColumns.from_ratings(train).deduplicated(),
                                         RatingColumns.from_ratings(test).deduplicated())

    @staticmethod
    def from_columns(train: RatingColumns, test: RatingColumns) -> "SplitDataset":
        """Build a split from train/test columns, each free of duplicate pairs.

        Test ratings whose user or item never occurs in train are dropped.
        """
        if not len(train):
            raise EmptyDatasetError("train set is empty")
        users, user_code = _sorted_table(train.users, train.user_codes)
        items, item_code = _sorted_table(train.items, train.item_codes)
        test_users, test_items = test.recode({u: k for k, u in enumerate(users)},
                                             {i: k for k, i in enumerate(items)})
        kept = np.flatnonzero((test_users >= 0) & (test_items >= 0))
        return SplitDataset(
            users, items,
            RatingColumns(users, items, user_code[train.user_codes], item_code[train.item_codes],
                          train.values, train.timestamps, train.missing),
            RatingColumns(users, items, test_users[kept], test_items[kept],
                          test.values[kept], test.timestamps[kept], test.missing[kept]),
        )

    @cached_property
    def item_index(self) -> dict:
        return {i: k for k, i in enumerate(self.items)}

    @cached_property
    def user_index(self) -> dict:
        return {u: k for k, u in enumerate(self.users)}

    @cached_property
    def train_csr(self) -> tuple:
        """(indptr, item indices): user k's train items are
        ``indices[indptr[k]:indptr[k + 1]]``, in file order."""
        t = self.train_columns
        return _csr(t.user_codes, t.item_codes, len(self.users))

    @cached_property
    def test_csr(self) -> tuple:
        """(indptr, item indices) of the test items, as :attr:`train_csr`."""
        t = self.test_columns
        return _csr(t.user_codes, t.item_codes, len(self.users))

    @cached_property
    def item_train_counts(self) -> np.ndarray:
        """Train ratings per item (its popularity), aligned with ``items``."""
        return np.bincount(self.train_columns.item_codes, minlength=len(self.items))

    @cached_property
    def user_train_counts(self) -> np.ndarray:
        """Train ratings per user, aligned with ``users``."""
        return np.diff(self.train_csr[0])

    @cached_property
    def user_test_counts(self) -> np.ndarray:
        """Test ratings per user, aligned with ``users``."""
        return np.diff(self.test_csr[0])

    def _cached(self, key: tuple, make):
        """``make()``, made on the first call with ``key`` and kept."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def relevant_csr(self, threshold: float = 4.0) -> tuple:
        """(indptr, item indices): user k's test items rated at or above
        ``threshold`` are ``indices[indptr[k]:indptr[k + 1]]``, in file order;
        built once per threshold."""
        def make():
            t = self.test_columns
            sel = np.flatnonzero(t.values >= threshold)
            return _csr(t.user_codes[sel], t.item_codes[sel], len(self.users))
        return self._cached(("csr", threshold), make)

    def relevant_keys(self, threshold: float = 4.0) -> np.ndarray:
        """Sorted ``user * len(items) + item`` keys of :meth:`relevant_csr`,
        then an int64-max sentinel, so any ``searchsorted`` position can be
        read; built once per threshold."""
        def make():
            indptr, items = self.relevant_csr(threshold)
            users = np.repeat(np.arange(len(self.users), dtype=np.int64), np.diff(indptr))
            return np.sort(np.append(users * len(self.items) + items, np.iinfo(np.int64).max))
        return self._cached(("keys", threshold), make)

    def popularity_weights(self, beta: float) -> np.ndarray:
        """``max(train popularity, 1) ** -beta`` per item, aligned with
        ``items``; built once per beta."""
        return self._cached(("weights", beta), lambda: np.array(
            [(c or 1) ** (-beta) for c in self.item_train_counts.tolist()], dtype=np.float64))

    def relevant_weight_total(self, beta: float, threshold: float = 4.0) -> float:
        """Exactly rounded sum (``math.fsum``) of :meth:`popularity_weights`
        over every item of :meth:`relevant_csr`: the strat-recall denominator
        of an evaluation of all users; built once per (beta, threshold)."""
        return self._cached(("total", beta, threshold), lambda: math.fsum(
            self.popularity_weights(beta)[self.relevant_csr(threshold)[1]].tolist()))

    # Views for callers that want Rating objects or id-keyed sets.

    @cached_property
    def train(self) -> tuple:
        return tuple(self.train_columns.ratings())

    @cached_property
    def test(self) -> tuple:
        return tuple(self.test_columns.ratings())

    @cached_property
    def per_user_train_index(self) -> dict:
        """user -> frozenset of the user's train items."""
        return _sets(self.users, *self.train_csr, self.items)

    @cached_property
    def per_user_test_index(self) -> dict:
        """user -> frozenset of the user's test items (empty for users without any)."""
        return _sets(self.users, *self.test_csr, self.items)


@dataclass(frozen=True, eq=False)
class ItemStats:
    """Train popularity and the Pareto long tail, as arrays over a split's
    ``items``: ``counts`` holds each item's train ratings, ``ranked`` the
    item indices by decreasing count (ties by ascending id), and ``in_tail``
    is True at the long-tail items."""

    counts: np.ndarray
    ranked: np.ndarray
    in_tail: np.ndarray


def _records(fh, format: str, path):
    """Per block of lines, (line numbers, columns, bad) of its non-blank
    records. ``columns`` lists the records' user, item, rating and timestamp
    strings (as :func:`_columns` gives them). ``bad`` is None, or the
    (line, message) of the first record that is not 3 or 4 fields or that
    csv.reader refuses: the records stop before it, and no block follows.
    Line numbers count records, a CSV header as line 1; csv.reader's own
    errors count lines."""
    delim = _DELIMITERS[format]
    line_no, lines_read = 1, 0  # the next record's number; lines read so far
    if format == "csv":
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise csv_parse_error(reader, path, exc) from None
        if header is None:
            raise EmptyDatasetError(f"{path}: empty file")
        header = [h.strip().lower() for h in header]
        if header[:3] != ["user", "item", "rating"]:
            raise ParseError(f"{path}:1: expected header user,item,rating[,timestamp]")
        line_no, lines_read = 2, reader.line_num
    limit = csv.field_size_limit()
    while block := list(islice(fh, CHUNK_ROWS)):
        text = "".join(block)
        if format == "csv" and ('"' in text or max(map(len, block)) > limit):
            # a quoted field may span lines and blocks, so csv.reader reads
            # the rest of the file
            yield from _csv_records(chain(block, fh), path, line_no, lines_read)
            return
        n = len(block)
        widths = np.fromiter(map(str.count, block, repeat(delim)), np.int64, n) + 1
        # a blank line is whitespace only; in CSV that is csv.reader's record
        # of no field or one blank field, as a comma is not whitespace
        blank = np.fromiter(map(str.isspace, block), bool, n)
        kept, numbers, bad = _kept(blank, widths, line_no)
        if len(kept) < n:
            text = "".join([block[k] for k in kept.tolist()])
        del block
        if "\r" in text:  # every \r ends a line: the file splits lines at a lone \r
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        # a field holds neither the delimiter nor a line end, so one split
        # gives every field of the block in order
        cells = text.removesuffix("\n").replace(delim, "\n").split("\n") if text else []
        del text
        yield numbers, _columns(cells, widths[kept]), bad
        if bad:
            return
        line_no += n
        lines_read += n


def _csv_records(source, path, line_no: int, lines_read: int):
    """:func:`_records` for the rest of a CSV file, read by csv.reader from
    the lines of ``source``; ``line_no`` numbers its first record and
    ``lines_read`` lines of the file came before it."""
    reader = csv.reader(source)
    while True:
        records, refused = [], None
        try:
            records.extend(islice(reader, CHUNK_ROWS))  # keeps what it read before an error
        except csv.Error as exc:  # a field past csv.field_size_limit(), say
            refused = lines_read + reader.line_num, str(exc)
        if not records and not refused:
            return
        n = len(records)
        widths = np.fromiter(map(len, records), np.int64, n)
        blank = widths == 0
        for k in np.flatnonzero(widths == 1).tolist():  # one field: blank if it is
            blank[k] = not records[k][0].strip()
        kept, numbers, bad = _kept(blank, widths, line_no)
        bad = bad or refused
        cells = list(chain.from_iterable(records[k] for k in kept.tolist()))
        del records
        yield numbers, _columns(cells, widths[kept]), bad
        if bad:
            return
        line_no += n


def _kept(blank: np.ndarray, widths: np.ndarray, line_no: int) -> tuple:
    """(kept, numbers, bad) for a block of records numbered from ``line_no``:
    the positions of the non-blank records before the first that has
    neither 3 nor 4 fields, their line numbers (a range when no record is
    left out), and that record's (line, message), or None."""
    wrong = ~blank & (widths != 3) & (widths != 4)
    stop = int(np.argmax(wrong)) if wrong.any() else len(blank)
    kept = np.flatnonzero(~blank[:stop])
    numbers = range(line_no, line_no + stop) if len(kept) == stop else kept + line_no
    if stop == len(blank):
        return kept, numbers, None
    return kept, numbers, (line_no + stop, f"expected 3 or 4 fields, got {widths[stop]}")


def _columns(cells: list, widths: np.ndarray) -> tuple:
    """(users, items, ratings, timestamps) of records whose fields are
    ``cells`` in order, ``widths[k]`` (3 or 4) of them for record k; the
    timestamp of a 3-field record is "", and the timestamps of a block of
    3-field records only are None."""
    n = len(widths)
    if (widths == 3).all():
        return cells[0::3], cells[1::3], cells[2::3], None
    if (widths == 4).all():
        return cells[0::4], cells[1::4], cells[2::4], cells[3::4]
    cells = _object_array(cells)
    start = np.cumsum(widths) - widths
    stamps = np.full(n, "", dtype=object)
    four = widths == 4
    stamps[four] = cells[start[four] + 3]
    return (*(cells[start + k].tolist() for k in range(3)), stamps.tolist())


def _strip_ids(raw: list, codes: np.ndarray) -> tuple:
    """Strip every raw id, merging ids that become equal; (ids, new codes)."""
    index: dict = {}
    merged = np.fromiter((index.setdefault(s.strip(), len(index)) for s in raw),
                         dtype=np.int64, count=len(raw))
    return list(index), merged[codes]


def _empty_id(ids: list, codes: np.ndarray) -> np.ndarray:
    return np.array([not s for s in ids], dtype=bool)[codes]


def _timestamp(s: str) -> int:
    """An integer literal as int(s), any other number as int(float(s)); 0 for
    a blank field."""
    if not s.strip():
        return 0
    try:
        return int(s)
    except ValueError:  # "1.5e9", "12.7"; NaN and the infinities stay unreadable
        return int(float(s))


def _read_table(raw: list, read, dtype) -> tuple:
    """(``read(s)`` per string of ``raw`` as a ``dtype`` array, mask of the
    strings that ``read`` refuses or ``dtype`` cannot hold)."""
    table = np.zeros(len(raw), dtype=dtype)
    bad = np.zeros(len(raw), dtype=bool)
    for k, s in enumerate(raw):
        try:
            table[k] = read(s)
        except (ValueError, OverflowError):  # OverflowError: an int past int64
            bad[k] = True
    return table, bad


def _parse(path, format: str) -> RatingColumns:
    """Parse a rating file into columns whose id tables hold the stripped id
    strings in order of first appearance; duplicate pairs keep the last
    occurrence. Errors name the first bad line, checked in file order."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    path = Path(path)
    tables = ({}, {}, {}, {})  # user, item, rating, timestamp strings -> code
    blocks = ([], [], [], [])  # per block, the codes of each column
    line_nos = []  # per block, its records' line numbers
    bad_record = None  # (line, message) of the first record that is not a rating
    with open(path, newline="") as fh:
        try:
            for numbers, columns, bad_record in _records(fh, format, path):
                line_nos.append(numbers)
                for codes, column, table in zip(blocks, columns, tables):
                    if column is None:  # every timestamp is blank: code "" once
                        codes.append(np.full(len(numbers), table.setdefault("", len(table)),
                                             dtype=np.int64))
                    else:
                        codes.append(_codes(column, table))
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not {fh.encoding} text") from None
    user_codes, item_codes, value_codes, ts_codes = map(_joined, blocks)

    users, user_codes = _strip_ids(list(tables[0]), user_codes)
    items, item_codes = _strip_ids(list(tables[1]), item_codes)
    raw_values, raw_ts = list(tables[2]), list(tables[3])
    value_table, bad_value = _read_table(raw_values, float, np.float64)
    ts_table, bad_ts = _read_table(raw_ts, _timestamp, np.int64)
    values = value_table[value_codes]
    checks = (  # per-row failures in the order a row is checked
        (_empty_id(users, user_codes) | _empty_id(items, item_codes),
         lambda k: "empty user or item id"),
        (bad_value[value_codes], lambda k: f"bad rating {raw_values[value_codes[k]]!r}"),
        (~np.isfinite(values) | (values < 0), lambda k: "rating must be finite and >= 0"),
        (bad_ts[ts_codes], lambda k: f"bad timestamp {raw_ts[ts_codes[k]]!r}"),
    )
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(describe(k) for failed, describe in checks if failed[k])
        raise ParseError(f"{path}:{_line(line_nos, k)}: {message}")
    if bad_record:
        line, message = bad_record
        raise ParseError(f"{path}:{line}: {message}")
    if not len(values):
        raise EmptyDatasetError(f"{path}: no ratings parsed")
    blank_ts = np.fromiter((not s.strip() for s in raw_ts), dtype=bool, count=len(raw_ts))
    timestamps, missing = ts_table[ts_codes], blank_ts[ts_codes]
    del value_codes, ts_codes, checks, bad  # before deduplicated() adds its own arrays
    return RatingColumns(tuple(users), tuple(items), user_codes, item_codes, values,
                         timestamps, missing).deduplicated()


def _joined(parts: list) -> np.ndarray:
    """The int64 arrays of ``parts`` as one, emptying ``parts`` as it goes."""
    out = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    parts.clear()
    return out


def _line(line_nos: list, k: int) -> int:
    """Row k's line number, from per-block line numbers."""
    for numbers in line_nos:
        if k < len(numbers):
            return int(numbers[k])
        k -= len(numbers)
    raise IndexError(k)


def load_columns(path, format: str = "tab_separated") -> RatingColumns:
    """Parse a rating file into :class:`RatingColumns`.

    Duplicate (user, item) pairs keep the last occurrence's value and
    timestamp, at the first occurrence's position. Ids become ints when
    every id in the column is written as one (``str(int(v)) == v``),
    otherwise they stay strings. The id tables are in order of first
    appearance.
    """
    cols = _parse(path, format)
    return cols._with_ids(canonical_ids(cols.users), canonical_ids(cols.items))


def load_ratings(path, format: str = "tab_separated") -> list:
    """Parse a rating file into a list of :class:`Rating` (see :func:`load_columns`)."""
    return load_columns(path, format).ratings()


def split_per_user(ratings, kappa: float, tau: int, seed: int) -> SplitDataset:
    """Random per-user split keeping a ceil(kappa * n_u) share in train.

    ``ratings`` is a :class:`RatingColumns` or a sequence of :class:`Rating`.
    Users with fewer than ``tau`` ratings are dropped. Each surviving user's
    ratings are shuffled by an rng seeded with ``seed XOR user id``, so adding
    or removing other users never perturbs an existing user's split. Train
    and test list users in order of first appearance and each user's
    ratings in input order.
    """
    if not 0 < kappa < 1:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if not isinstance(ratings, RatingColumns):
        ratings = RatingColumns.from_ratings(ratings)
    cols = ratings.deduplicated()  # duplicate (user, item) pairs keep the last occurrence
    present, first = np.unique(cols.user_codes, return_index=True)
    by_appearance = present[np.argsort(first)]
    rank = np.zeros(len(cols.users), dtype=np.int64)
    rank[by_appearance] = np.arange(len(by_appearance))
    grouped = np.argsort(rank[cols.user_codes], kind="stable")
    counts = np.bincount(cols.user_codes, minlength=len(cols.users))[by_appearance]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    in_train = np.zeros(len(cols), dtype=bool)
    kept = np.zeros(len(cols), dtype=bool)
    for user, start, n in zip(by_appearance.tolist(), starts.tolist(), counts.tolist()):
        if n < tau:
            continue
        rng = np.random.default_rng((seed ^ id_int(cols.users[user])) & 0xFFFFFFFFFFFFFFFF)
        perm = rng.permutation(n)
        in_train[start + perm[:math.ceil(kappa * n)]] = True
        kept[start:start + n] = True
    if not in_train.any():
        raise EmptyDatasetError(f"no users with at least tau={tau} ratings")
    return SplitDataset.from_columns(cols.take(grouped[in_train]),
                                     cols.take(grouped[kept & ~in_train]))


def compute_item_stats(split: SplitDataset) -> ItemStats:
    """Popularity counts plus the long-tail mask under the 80/20 boundary rule.

    Items are ranked by (popularity desc, id asc); the head is the shortest
    prefix whose cumulative popularity reaches 80% of all train ratings and
    the long tail is everything after it.
    """
    counts = split.item_train_counts
    total = len(split.train_columns)
    ranked = np.argsort(-counts, kind="stable")  # items are sorted, so ties go by id
    cum = np.cumsum(counts[ranked])
    boundary = int(np.argmax(5 * cum >= 4 * total)) + 1  # cum >= 0.80 * total, exact
    in_tail = np.zeros(len(split.items), dtype=bool)
    in_tail[ranked[boundary:]] = True
    return ItemStats(counts=counts, ranked=ranked, in_tail=in_tail)


def min_max_normalize(x) -> np.ndarray:
    """Affine map of a vector onto [0, 1]; a constant vector maps to zeros."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot normalize non-finite values")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def activity_popularity_profile(split: SplitDataset, bins: int = 20) -> list:
    """Mean average-popularity of rated items, binned by normalized activity.

    Returns (bin_center, mean average-popularity) for occupied bins only.
    Diagnostic output for the ``stats`` command; no algorithm consumes it.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    t = split.train_columns
    activity = split.user_train_counts.astype(float)
    popularity = split.item_train_counts.astype(float)
    avg_pop = np.bincount(t.user_codes, weights=popularity[t.item_codes],
                          minlength=len(split.users)) / activity
    norm = min_max_normalize(activity)
    which = np.minimum((norm * bins).astype(int), bins - 1)
    out = []
    for b in range(bins):
        sel = which == b
        if sel.any():
            out.append(((b + 0.5) / bins, float(avg_pop[sel].mean())))
    return out


# csv.writer quotes a field that holds any of these characters.
_QUOTED = frozenset(',"\r\n')


def _csv_field(x) -> str:
    """An id as csv.writer writes it: ``str`` ("" for None), wrapped in
    ``"`` with its inner ``"`` doubled when it holds a character in
    ``_QUOTED``."""
    s = "" if x is None else str(x)
    return '"' + s.replace('"', '""') + '"' if _QUOTED.intersection(s) else s


def _write_ratings_csv(path, cols: RatingColumns) -> None:
    """Write ``cols`` in the form of :func:`~ganc.io_utils.write_table`, with
    CRLF line ends: one string per distinct id (:func:`_csv_field`) and per
    distinct value (``repr``, told apart by bits so -0.0 stays "-0.0"),
    gathered through the codes and joined block by block."""
    bits, inverse = np.unique(cols.values.view(np.int64), return_inverse=True)
    values = [repr(v) for v in bits.view(np.float64).tolist()]
    tables = tuple(map(_object_array, (list(map(_csv_field, cols.users)),
                                       list(map(_csv_field, cols.items)), values)))
    with open(path, "w", newline="") as fh:
        fh.write("user,item,rating,timestamp\r\n")
        for lo in range(0, len(cols), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            stamps = _stamp_strings(cols.timestamps[rows], cols.missing[rows])
            block = zip(*(t[c[rows]].tolist() for t, c in
                          zip(tables, (cols.user_codes, cols.item_codes, inverse))), stamps)
            fh.write("\r\n".join(map(",".join, block)) + "\r\n")


def _stamp_strings(timestamps: np.ndarray, missing: np.ndarray):
    """``str`` of each timestamp, "" where it is missing."""
    if missing.all():
        return repeat("")
    stamps = _object_array(list(map(str, timestamps.tolist())))
    stamps[missing] = ""
    return stamps.tolist()


def save_split(split: SplitDataset, directory, manifest: dict | None = None) -> None:
    """Persist train.csv, test.csv, a split.json manifest and the split.npz
    sidecar (see :func:`load_split`)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    _write_ratings_csv(d / "train.csv", split.train_columns)
    _write_ratings_csv(d / "test.csv", split.test_columns)
    digests = sha256_file(d / "train.csv"), sha256_file(d / "test.csv")
    payload = dict(manifest or {})
    payload.update(
        n_train=len(split.train_columns),
        n_test=len(split.test_columns),
        n_users=len(split.users),
        n_items_train=len(split.items),
        train_sha256=digests[0],
        test_sha256=digests[1],
    )
    write_json(d / "split.json", payload)
    arrays = _sidecar_arrays(split)
    if arrays is None:
        (d / SIDECAR).unlink(missing_ok=True)
    else:
        np.savez(d / SIDECAR, train_sha256=digests[0], test_sha256=digests[1], **arrays)


def load_split(directory) -> tuple[SplitDataset, dict]:
    """Load a persisted split; returns (split, manifest).

    Ids are canonicalized over train.csv and test.csv together, so an id
    reads the same in both files. The manifest is split.json plus
    ``split_sha256``, the :func:`~ganc.io_utils.split_hash` of the two files
    as read here. The split comes from the split.npz sidecar when it was
    built from these exact bytes and passes its checks, and from parsing the
    CSVs otherwise; both give the same split.
    """
    d = Path(directory)
    digests = sha256_file(d / "train.csv"), sha256_file(d / "test.csv")
    split = _read_sidecar(d / SIDECAR, *digests)
    if split is None:
        split = _parse_split(d)
    manifest = read_json(d / "split.json")
    manifest["split_sha256"] = split_digest(*digests)
    return split, manifest


def _parse_split(d: Path) -> SplitDataset:
    train = _parse(d / "train.csv", "csv")
    try:
        test = _parse(d / "test.csv", "csv")
    except EmptyDatasetError:
        test = RatingColumns.from_ratings(())
    users = canonical_ids(train.users + test.users)
    items = canonical_ids(train.items + test.items)
    n_users, n_items = len(train.users), len(train.items)
    return SplitDataset.from_columns(
        train._with_ids(users[:n_users], items[:n_items]),
        test._with_ids(users[n_users:], items[n_items:]))


# The split.npz sidecar: a cache of the split that load_split parses from
# train.csv and test.csv, with the SHA-256 of the two files it stands for.
# Id tables are int64 arrays or UTF-8 bytes plus offsets; timestamps are an
# int64 array plus a mask of the missing ones, both left out of a part
# whose timestamps are all missing (sidecars that hold them still load).

SIDECAR = "split.npz"
# the RatingColumns arrays stored per part ("train_user_codes", ...) and their
# dtypes; the last two are stored only when some timestamp of the part is present
_SIDECAR_COLUMNS = ("user_codes", "item_codes", "values", "timestamps", "missing")
_SIDECAR_DTYPES = (np.int64, np.int64, np.float64, np.int64, np.bool_)


def _written_ids(table: tuple) -> tuple | None:
    """The ids of ``table`` as load_split reads back their written form;
    None when reading it back would alter them (an id other than an int or
    a str, an empty or padded one, two written alike, or one past the csv
    field limit)."""
    if not all(type(x) in (int, str) for x in table):
        return None
    written = [x if type(x) is str else str(x) for x in table]
    limit = csv.field_size_limit()
    if len(set(written)) < len(written) or any(
            not s or s != s.strip() or len(s) > limit for s in written):
        return None
    return tuple(canonical_ids(written))


def _table_arrays(name: str, table: tuple) -> dict:
    if type(table[0]) is int:  # canonical tables are all ints or all strs
        return {name: np.array(table, dtype=np.int64)}  # OverflowError past int64
    encoded = [s.encode("utf-8") for s in table]
    return {f"{name}_utf8": np.frombuffer(b"".join(encoded), dtype=np.uint8),
            f"{name}_offsets": np.cumsum([0, *map(len, encoded)], dtype=np.int64)}


def _sidecar_arrays(split: SplitDataset) -> dict | None:
    """The sidecar arrays of the split load_split parses back from the CSVs
    save_split writes for ``split``; None when an id would not come back as
    written or fit int64, or the parse would refuse a rating value.

    Ids are canonicalized over their written strings, so a split of ids
    ``"1"``, ``"2"`` comes back as the ints 1, 2 and may sort differently.
    """
    users, items = _written_ids(split.users), _written_ids(split.items)
    parts = split.train_columns, split.test_columns
    if users is None or items is None or not all(
            (np.isfinite(c.values) & (c.values >= 0)).all() for c in parts):
        return None  # the parse would refuse the file
    back = SplitDataset.from_columns(*(c._with_ids(users, items).deduplicated() for c in parts))
    try:
        arrays = {**_table_arrays("users", back.users), **_table_arrays("items", back.items)}
    except OverflowError:
        return None
    for part, cols in (("train", back.train_columns), ("test", back.test_columns)):
        kept = _SIDECAR_COLUMNS[:3 if cols.missing.all() else 5]
        arrays.update((f"{part}_{k}", getattr(cols, k)) for k in kept)
    return arrays


def _require(ok) -> None:
    if not ok:
        raise ValueError("split.npz fails a check")


def _sidecar_table(z, name: str) -> tuple:
    if name in z.files:
        ids = z[name]
        _require(ids.dtype == np.int64 and ids.ndim == 1 and (ids[1:] > ids[:-1]).all())
        return tuple(ids.tolist())
    data, offsets = z[f"{name}_utf8"], z[f"{name}_offsets"]
    _require(data.dtype == np.uint8 and offsets.dtype == np.int64
             and data.ndim == offsets.ndim == 1 and len(offsets) > 0 and offsets[0] == 0
             and offsets[-1] == len(data) and (offsets[1:] >= offsets[:-1]).all())
    raw, bounds = data.tobytes(), offsets.tolist()
    table = tuple(raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:]))
    _require(all(a < b for a, b in zip(table, table[1:])))
    return table


def _sidecar_columns(z, part: str, users: tuple, items: tuple) -> RatingColumns:
    stamped = f"{part}_timestamps" in z.files or f"{part}_missing" in z.files
    arrays = [z[f"{part}_{k}"] for k in _SIDECAR_COLUMNS[:5 if stamped else 3]]
    if not stamped:  # every timestamp of the part is missing
        arrays += [np.zeros(len(arrays[2]), dtype=np.int64), np.ones(len(arrays[2]), dtype=bool)]
    _require(all(a.dtype == t and a.ndim == 1 and len(a) == len(arrays[0])
                 for a, t in zip(arrays, _SIDECAR_DTYPES)))
    user_codes, item_codes, values, timestamps, missing = arrays
    _require(not len(values) or (
        0 <= user_codes.min() and user_codes.max() < len(users)
        and 0 <= item_codes.min() and item_codes.max() < len(items)
        and (np.isfinite(values) & (values >= 0)).all() and not timestamps[missing].any()))
    return RatingColumns(users, items, *arrays)


def _read_sidecar(path: Path, train_sha256: str, test_sha256: str) -> SplitDataset | None:
    """The split a sidecar holds for CSVs with these digests; None when it
    is missing, unreadable, built from other bytes or fails its checks."""
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):  # a bare .npy array
            return None
        with z:
            if (str(z["train_sha256"]), str(z["test_sha256"])) != (train_sha256, test_sha256):
                return None
            users, items = _sidecar_table(z, "users"), _sidecar_table(z, "items")
            train = _sidecar_columns(z, "train", users, items)
            test = _sidecar_columns(z, "test", users, items)
        # every table entry occurs in train, as in a split built from columns
        _require(len(train) and np.bincount(train.user_codes, minlength=len(users)).all()
                 and np.bincount(train.item_codes, minlength=len(items)).all())
    except NPZ_ERRORS:
        return None
    return SplitDataset(users, items, train, test)


def resolve_ids(values, table: tuple) -> list:
    """Read id strings against a split's id table (``users`` or ``items``).

    A string becomes the table's id written the same way (``str(id) ==
    value``), so a file that lists only some ids of a mixed column reads
    them as the split does. Strings the table lacks stay as read.
    """
    named = {str(x): x for x in table}
    return [named.get(v, v) for v in values]
