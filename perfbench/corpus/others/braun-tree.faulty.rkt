(module braun-tree
  (struct node (left value right))
  (provide [tree-value (-> any/c integer?)])
  (define (well-formed? t) (and (node? t) (integer? (node-value t))))
  (define (tree-value t) (node-value t)))
