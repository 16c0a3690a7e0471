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
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    lt(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    le(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    lt(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    le(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    lt(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    le(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).

dnf6(X, Y) :-
    ge(X, 3),
    gt(X, -7),
    ge(X, 12),
    gt(X, 0),
    ge(X, -15),
    gt(X, 20),
    plus(X, 4, V),
    Y = V,
    integer(Y).
