(module multt
  (provide [main (-> integer? integer?)])
  (define (double x) (+ x x))
  (define (main n) (if (>= n 0) (begin (assert (>= (double n) n)) 0) 0)))
