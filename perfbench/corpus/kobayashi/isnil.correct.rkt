(module isnil
  (provide [head (-> (and/c (listof integer?) pair?) integer?)])
  (define (head xs) (car xs)))
