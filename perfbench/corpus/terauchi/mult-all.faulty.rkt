(module mult-all
  (provide [main (-> integer? integer? integer?)])
  (define (mult x y) (if (or (<= x 0) (<= y 0)) 0 (+ x (mult x (- y 1)))))
  (define (main x y) (begin (assert (> 0 (mult 0 y))) 0)))
