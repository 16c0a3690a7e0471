dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V1),
    Y = V1,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V2),
    Y = V2,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V3),
    Y = V3,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V4),
    Y = V4,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V5),
    Y = V5,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V6),
    Y = V6,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V7),
    Y = V7,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V8),
    Y = V8,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V9),
    Y = V9,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V10),
    Y = V10,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V11),
    Y = V11,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V12),
    Y = V12,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V13),
    Y = V13,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V14),
    Y = V14,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V15),
    Y = V15,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V16),
    Y = V16,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V17),
    Y = V17,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V18),
    Y = V18,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V19),
    Y = V19,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V20),
    Y = V20,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V21),
    Y = V21,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V22),
    Y = V22,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V23),
    Y = V23,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V24),
    Y = V24,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V25),
    Y = V25,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V26),
    Y = V26,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V27),
    Y = V27,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V28),
    Y = V28,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V29),
    Y = V29,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V30),
    Y = V30,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V31),
    Y = V31,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V32),
    Y = V32,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V33),
    Y = V33,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V34),
    Y = V34,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V35),
    Y = V35,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V36),
    Y = V36,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V37),
    Y = V37,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V38),
    Y = V38,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V39),
    Y = V39,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V40),
    Y = V40,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V41),
    Y = V41,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V42),
    Y = V42,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V43),
    Y = V43,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V44),
    Y = V44,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V45),
    Y = V45,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V46),
    Y = V46,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V47),
    Y = V47,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V48),
    Y = V48,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V49),
    Y = V49,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V50),
    Y = V50,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V51),
    Y = V51,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V52),
    Y = V52,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V53),
    Y = V53,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V54),
    Y = V54,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V55),
    Y = V55,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V56),
    Y = V56,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V57),
    Y = V57,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V58),
    Y = V58,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V59),
    Y = V59,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V60),
    Y = V60,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V61),
    Y = V61,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V62),
    Y = V62,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V63),
    Y = V63,
    integer(Y).
