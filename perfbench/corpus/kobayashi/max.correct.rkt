(module maxbench
  (provide [main (-> integer? integer? integer?)])
  (define (mymax a b) (if (< a b) b a))
  (define (main a b) (begin (assert (>= (mymax a b) a)) (mymax a b))))
