(module mult-cps
  (provide [main (-> integer? integer?)])
  (define (mult-k x y k) (if (or (<= x 0) (<= y 0)) (k 0) (mult-k x (- y 1) (lambda (r) (k (+ x r))))))
  (define (main n) (mult-k 0 n (lambda (r) (begin (assert (> r 0)) r)))))
