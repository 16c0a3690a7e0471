q__d1(X, Y) :-
    nat(X),
    X = zero,
    Y = s(zero).

q__d1(X, Y) :-
    nat(X),
    X = s(Z),
    Y = s(s(Z)).

q__d2(X, Y) :-
    nat(Y),
    X = zero,
    Y = s(zero).

q__d2(X, Y) :-
    nat(Y),
    Y = s(s(Z)),
    X = s(Z).

p(X, Y) :-
    nat(X),
    nat(Y),
    q__d1(X, Z),
    Z = Y.

p__d1(X, Y) :-
    nat(X),
    q__d1(X, Z),
    Z = Y,
    nat(Y).

p__d2(X, Y) :-
    nat(Y),
    Z = Y,
    nat(Z),
    q__d2(X, Z).

r(X) :-
    X = zero.
