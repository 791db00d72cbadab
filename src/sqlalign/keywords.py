"""The fixed SQL keyword vocabulary used by the n-gram validity filter.

An n-gram is only kept if it contains at least one of these tokens, so the
exact contents of this set are part of the tool's contract: changing it
changes every distribution and every divergence computed from one. Treat it
as a versioned artifact; extend it only together with a version bump.

The set holds single uppercase tokens. Multi-word constructs (GROUP BY,
PARTITION BY, UNION ALL) appear as their individual words because templates
are token sequences.
"""

from __future__ import annotations

# Clause and statement structure.
_CLAUSE = (
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING",
    "LIMIT", "OFFSET", "DISTINCT", "ALL", "AS", "ON", "USING",
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL",
    "UNION", "INTERSECT", "EXCEPT", "WITH", "RECURSIVE",
)

# Predicates and logical connectives.
_PREDICATE = (
    "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "ILIKE", "GLOB",
    "REGEXP", "MATCH", "BETWEEN", "EXISTS", "ESCAPE",
)

# Conditional expressions.
_CONDITIONAL = ("CASE", "WHEN", "THEN", "ELSE", "END", "IIF")

# Casts, constants, ordering and collation.
_MISC = (
    "CAST", "TRUE", "FALSE", "INTERVAL",
    "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP",
    "ASC", "DESC", "NULLS", "FIRST", "LAST", "COLLATE",
)

# Window machinery.
_WINDOW = (
    "OVER", "PARTITION", "ROWS", "RANGE", "GROUPS", "UNBOUNDED",
    "PRECEDING", "FOLLOWING", "CURRENT", "ROW", "FILTER", "WINDOW",
)

# Aggregate functions.
_AGGREGATE = (
    "COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT",
    "STRING_AGG", "ARRAY_AGG", "STDDEV", "VARIANCE", "MEDIAN",
    "PERCENTILE_CONT", "PERCENTILE_DISC",
)

# Window functions.
_WINDOW_FUNC = (
    "ROW_NUMBER", "RANK", "DENSE_RANK", "NTILE", "LAG", "LEAD",
    "FIRST_VALUE", "LAST_VALUE", "CUME_DIST", "PERCENT_RANK",
)

# Common scalar functions seen across SQLite- and PostgreSQL-flavoured corpora.
_SCALAR = (
    "ABS", "ROUND", "LENGTH", "UPPER", "LOWER", "SUBSTR", "SUBSTRING",
    "TRIM", "LTRIM", "RTRIM", "REPLACE", "INSTR", "COALESCE", "IFNULL",
    "NULLIF", "CONCAT", "PRINTF", "FORMAT", "POWER", "SQRT", "EXP", "LN",
    "LOG", "LOG10", "CEIL", "CEILING", "FLOOR", "MOD", "SIGN", "RANDOM",
)

# Date and time functions.
_DATETIME = (
    "DATE", "TIME", "DATETIME", "JULIANDAY", "STRFTIME", "NOW",
    "DATE_TRUNC", "DATE_PART", "EXTRACT", "DATEDIFF", "DATE_ADD",
    "DATE_SUB", "YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND",
    "QUARTER", "WEEK",
)

SQL_KEYWORDS: frozenset[str] = frozenset(
    _CLAUSE + _PREDICATE + _CONDITIONAL + _MISC + _WINDOW
    + _AGGREGATE + _WINDOW_FUNC + _SCALAR + _DATETIME
)

# Non-keyword tokens that may legally appear in a structural template:
# operators, commas and parentheses. They are the operator half of the
# parser's shape vocabulary (parsing.SHAPE_VOCABULARY); the n-gram filter
# itself only consults SQL_KEYWORDS.
TEMPLATE_OPERATORS: frozenset[str] = frozenset(
    ("=", "==", "<", ">", "<=", ">=", "<>", "!=", "/", "*", "+", "-",
     "||", "%", "~", ",", "(", ")")
)
