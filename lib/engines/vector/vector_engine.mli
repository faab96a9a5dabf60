(** Vectorized columnar engine (Table 1's "VectorWise 3.0" stand-in).

    Executes column-at-a-time over the {!Lq_storage.Colstore}: predicates
    produce selection vectors, expressions evaluate into dense unboxed
    arrays, grouping/joins run vectorized primitive loops over those
    arrays. Interpretation overhead is paid once per *vector*, not once
    per tuple — the competing design point to query compilation that
    §7.5/Table 1 positions the generated code against (cf. Sompolski et
    al., "Vectorization vs. compilation"). *)

val engine : Lq_catalog.Engine_intf.t

