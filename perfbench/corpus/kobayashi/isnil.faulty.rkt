(module isnil
  (provide [head (-> (listof integer?) integer?)])
  (define (head xs) (car xs)))
