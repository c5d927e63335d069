(module multt
  (provide [main (-> integer? integer?)])
  (define (double x) (+ x x))
  (define (main n) (begin (assert (>= (double n) n)) 0)))
