:- pred dnf6(integer, integer).
:- mode dnf6(in, out) is nondet.
:- mode dnf6(in, in) is nondet.

dnf6(X, Y) :-
    ( lt(X, 3) ; ge(X, 3) ),
    ( le(X, -7) ; gt(X, -7) ),
    ( lt(X, 12) ; ge(X, 12) ),
    ( le(X, 0) ; gt(X, 0) ),
    ( lt(X, -15) ; ge(X, -15) ),
    ( le(X, 20) ; gt(X, 20) ),
    plus(X, 4, V),
    Y = V.
